package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"

	"dissenter/internal/eventlog"
	"dissenter/internal/platform"
)

// opFailures lists the distinct reasons ops failed, in every phase,
// warm-up included.
func opFailures(phases ...*phase) []string {
	counts := map[string]int{}
	var order []string
	for _, p := range phases {
		if p == nil {
			continue
		}
		for _, r := range p.recs {
			if r.res.ok {
				continue
			}
			if counts[r.res.why] == 0 {
				order = append(order, r.res.why)
			}
			counts[r.res.why]++
		}
	}
	var out []string
	for _, why := range order {
		out = append(out, fmt.Sprintf("%d op(s): %s", counts[why], why))
	}
	return out
}

// checkFleet runs the post-run invariants and tears the fleet's
// serving side down. Each failed check is one problem.
func checkFleet(f *fleet, cl *client, phases []*phase) []string {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	// Replicas converge to the primary's bytes.
	primary := f.db.Checkpoint()
	want := eventlog.EncodeSnapshot(primary)
	for _, n := range f.reps {
		cp := n.rep.DB().Checkpoint()
		if got := eventlog.EncodeSnapshot(cp); !bytes.Equal(got, want) {
			fail("%s checkpoint differs from the primary's (seq %d vs %d)%s",
				n.name, cp.Seq, primary.Seq, diagnose(cp, primary))
		}
	}

	// Every acked comment is readable through the gateway: each page
	// is fetched as many times as there are replicas, and the
	// gateway round-robins those fetches.
	markers := map[string][]string{}
	var pages []string
	for _, p := range phases {
		if p == nil {
			continue
		}
		for _, r := range p.recs {
			o := &p.ops[r.op%len(p.ops)]
			if o.kind != opComment || !r.res.ok {
				continue
			}
			if markers[o.target] == nil {
				pages = append(pages, o.target)
			}
			markers[o.target] = append(markers[o.target], marker(p.id(r.op)))
		}
	}
	missing := 0
	for _, addr := range pages {
		for k := 0; k < len(f.reps); k++ {
			body, err := cl.get(discussionPath(addr))
			if err != nil {
				fail("read back %s: %v", addr, err)
				break
			}
			for _, m := range markers[addr] {
				if !bytes.Contains(body, []byte(m)) {
					missing++
				}
			}
		}
	}
	if missing > 0 {
		fail("%d acked comment reads through the gateway lacked the comment", missing)
	}

	// Retries stay within the gateway's budget.
	st := f.gw.Stats()
	if limit := retryBurst + retryRatio*float64(st.Requests); float64(st.Retries) > limit {
		fail("gateway retries %d exceed budget %.1f", st.Retries, limit)
	}

	// The primary's directory restores to the primary's state.
	if err := f.stopServing(); err != nil {
		fail("stop fleet: %v", err)
	}
	if err := f.pers.Close(); err != nil {
		fail("close primary persister: %v", err)
	}
	f.pers = nil
	if err := f.persErrs.err(); err != nil {
		fail("%v", err)
	}
	restored, skipped, err := eventlog.RestoreDir(filepath.Join(f.cfg.dir, "primary"))
	switch {
	case err != nil:
		fail("restore primary dir: %v", err)
	case restored == nil:
		fail("restore primary dir: no state")
	case skipped != 0:
		fail("restore primary dir: %d records skipped", skipped)
	default:
		if cp := restored.Checkpoint(); !bytes.Equal(eventlog.EncodeSnapshot(cp), want) {
			fail("restored primary checkpoint differs from the primary's (seq %d vs %d)%s",
				cp.Seq, primary.Seq, diagnose(cp, primary))
		}
	}
	return problems
}

// diagnose explains a checkpoint mismatch that is only a difference in
// the order of the comment records: same comments, different sequence.
// The check itself stays byte-exact.
func diagnose(a, b platform.Checkpoint) string {
	byID := func(cp platform.Checkpoint) platform.Checkpoint {
		cp.Comments = slices.Clone(cp.Comments)
		slices.SortFunc(cp.Comments, func(x, y *platform.Comment) int { return bytes.Compare(x.ID[:], y.ID[:]) })
		return cp
	}
	if !bytes.Equal(eventlog.EncodeSnapshot(byID(a)), eventlog.EncodeSnapshot(byID(b))) {
		return ""
	}
	moved := 0
	for i := range a.Comments {
		if a.Comments[i].ID != b.Comments[i].ID {
			moved++
		}
	}
	return fmt.Sprintf(": same records, but %d of %d comments sit at different positions in Checkpoint().Comments", moved, len(a.Comments))
}
