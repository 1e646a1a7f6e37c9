package platform

import (
	"dissenter/internal/ids"
)

// Checkpoint is a consistent cut of the store's base state at a known
// event-sequence point: everything a fresh process needs to rebuild an
// equivalent DB (FromCheckpoint) and resume consuming the event stream
// at Seq+1. It is the unit the durability layer snapshots to disk
// (internal/eventlog) and the replication publisher streams to
// bootstrapping replicas (internal/replica).
//
// Serve-time vote deltas are FOLDED into the URL records: the cloned
// *CommentURL carries baseline-plus-delta totals and the restored
// store starts with empty deltas. Every read path reports
// baseline+delta sums (DB.Votes, the leaderboard entries), so folding
// preserves every rendered byte while keeping the checkpoint a plain
// entity dump.
type Checkpoint struct {
	// Seq is the sequence number of the last event the cut reflects;
	// replaying events Seq+1.. on top of FromCheckpoint(cp) reproduces
	// the source store's later states.
	Seq      uint64
	Users    []*User
	URLs     []*CommentURL
	Comments []*Comment
	Follows  map[ids.GabID][]ids.GabID
}

// Checkpoint cuts a consistent snapshot of the store. It takes the
// write gate exclusively, so no write is half-applied at the cut and
// Seq covers exactly the events dispatched before it; readers are not
// blocked. The entity slices are fresh (private backing arrays — legal
// seeds for New/FromCheckpoint), sharing the immutable records except
// for URLs with serve-time votes, which are cloned with the deltas
// folded in.
func (db *DB) Checkpoint() Checkpoint {
	db.gate.Lock()
	defer db.gate.Unlock()

	db.eventMu.Lock()
	seq := db.eventBase + uint64(len(db.events))
	users := make([]*User, len(db.users))
	copy(users, db.users)
	urls := make([]*CommentURL, len(db.urls))
	copy(urls, db.urls)
	comments := make([]*Comment, len(db.comments))
	copy(comments, db.comments)
	db.eventMu.Unlock()

	for i, cu := range urls {
		if d, ok := db.votes.get(cu.ID); ok && (d.ups != 0 || d.downs != 0) {
			folded := *cu
			folded.Ups += d.ups
			folded.Downs += d.downs
			urls[i] = &folded
		}
	}

	follows := make(map[ids.GabID][]ids.GabID)
	db.following.forEach(func(from ids.GabID, tos []ids.GabID) bool {
		out := make([]ids.GabID, len(tos))
		copy(out, tos)
		follows[from] = out
		return true
	})

	return Checkpoint{Seq: seq, Users: users, URLs: urls, Comments: comments, Follows: follows}
}

// FromCheckpoint rebuilds a store from a consistent cut: a New-built
// DB whose event log resumes at cp.Seq — EventSeq() == cp.Seq with an
// empty tail, so EventsSince(cp.Seq) yields exactly the events applied
// after restoration. The checkpoint's slices are retained (New's
// ownership contract); do not rebuild two stores from one decoded
// checkpoint without re-decoding or copying.
func FromCheckpoint(cp Checkpoint) *DB {
	db := New(cp.Users, cp.URLs, cp.Comments, cp.Follows)
	db.eventMu.Lock()
	db.eventBase = cp.Seq
	db.eventMu.Unlock()
	return db
}
