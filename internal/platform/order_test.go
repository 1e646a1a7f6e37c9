package platform

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dissenter/internal/ids"
)

// TestEntityOrderMatchesEventLog pins that the entity slices record
// racing writes in event-log order. Replaying the log — which is also
// what checkpoint-plus-WAL recovery and a replica do — must rebuild
// the exact RangeUsers, RangeURLs, and RangeComments order of the
// store that took the writes, or the copies disagree with it.
func TestEntityOrderMatchesEventLog(t *testing.T) {
	src := freshReplayTarget()
	pages := allURLs(src)
	base := time.Unix(1_540_000_000, 0)
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := ids.NewGenerator(uint64(w+1) * 0x0D3E)
			for i := 0; i < perWriter; i++ {
				u := &User{
					GabID:        ids.GabID(1000 + w*perWriter + i),
					Username:     fmt.Sprintf("order-%d-%03d", w, i),
					HasDissenter: true,
					AuthorID:     gen.NewAt(base),
					CreatedAt:    base,
				}
				src.AddUser(u)
				src.SubmitURL(&CommentURL{
					ID:        gen.NewAt(base),
					URL:       fmt.Sprintf("https://order.example/%d/%03d", w, i),
					FirstSeen: base,
				})
				src.AddComment(&Comment{
					ID:        gen.NewAt(base),
					URLID:     pages[i%len(pages)].ID,
					AuthorID:  u.AuthorID,
					Text:      "ordered",
					CreatedAt: base,
				})
			}
		}(w)
	}
	wg.Wait()

	dst := freshReplayTarget()
	src.ReplayInto(dst)
	userID := func(u *User) string { return u.GabID.String() }
	urlID := func(cu *CommentURL) string { return cu.ID.String() }
	commentID := func(c *Comment) string { return c.ID.String() }
	sameOrder(t, "users", allUsers(src), allUsers(dst), userID)
	sameOrder(t, "urls", allURLs(src), allURLs(dst), urlID)
	sameOrder(t, "comments", allComments(src), allComments(dst), commentID)
}

// sameOrder fails at the first position where the replayed walk holds
// a different record than the source's.
func sameOrder[T any](t *testing.T, what string, src, replayed []T, id func(T) string) {
	t.Helper()
	if len(src) != len(replayed) {
		t.Fatalf("%s: source holds %d, replay %d", what, len(src), len(replayed))
	}
	for i := range src {
		if id(src[i]) != id(replayed[i]) {
			t.Fatalf("%s: order diverges from the event log at position %d of %d: %s vs %s",
				what, i, len(src), id(src[i]), id(replayed[i]))
		}
	}
}
