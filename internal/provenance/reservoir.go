package provenance

import (
	"sort"

	"phastlane/internal/exp"
)

// tailEntry orders one retained packet inside the reservoir.
type tailEntry struct {
	lat int64
	tie uint64
	log *packetLog
}

// tailReservoir keeps the K slowest completed packets seen so far. It is
// a min-heap ordered by (latency, seeded tie-break hash, message ID):
// the root is the entry closest to eviction. Because the retained set is
// the top K of a total order over (latency, tie, id) — a function of the
// packet alone, not of arrival order — the cohort is bit-identical for
// any event interleaving and any worker count, given the same seed.
type tailReservoir struct {
	k    int
	seed int64
	h    []tailEntry
}

// less reports whether a orders strictly before b (a is faster, so a is
// evicted first). Ties in latency break by seeded hash, then by ID, so
// the order is total and deterministic.
func less(a, b tailEntry) bool {
	if a.lat != b.lat {
		return a.lat < b.lat
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.log.id < b.log.id
}

// offer considers a completed packet. It returns the log the reservoir
// released — l itself when it was not slow enough, the evicted previous
// occupant when l displaced it, nil when the reservoir had room.
func (r *tailReservoir) offer(l *packetLog) *packetLog {
	e := tailEntry{lat: l.latency, tie: exp.Mix64(uint64(r.seed) ^ l.id), log: l}
	if len(r.h) < r.k {
		r.h = append(r.h, e)
		r.siftUp(len(r.h) - 1)
		return nil
	}
	if !less(r.h[0], e) {
		return l
	}
	evicted := r.h[0].log
	r.h[0] = e
	r.siftDown(0)
	return evicted
}

func (r *tailReservoir) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(r.h[i], r.h[p]) {
			return
		}
		r.h[i], r.h[p] = r.h[p], r.h[i]
		i = p
	}
}

func (r *tailReservoir) siftDown(i int) {
	for {
		l, rt := 2*i+1, 2*i+2
		m := i
		if l < len(r.h) && less(r.h[l], r.h[m]) {
			m = l
		}
		if rt < len(r.h) && less(r.h[rt], r.h[m]) {
			m = rt
		}
		if m == i {
			return
		}
		r.h[i], r.h[m] = r.h[m], r.h[i]
		i = m
	}
}

// cohort returns the retained packets slowest-first.
func (r *tailReservoir) cohort() []*packetLog {
	es := make([]tailEntry, len(r.h))
	copy(es, r.h)
	sort.Slice(es, func(i, j int) bool { return less(es[j], es[i]) })
	out := make([]*packetLog, len(es))
	for i, e := range es {
		out[i] = e.log
	}
	return out
}
