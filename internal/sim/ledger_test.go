package sim

import (
	"reflect"
	"slices"
	"testing"

	"phastlane/internal/mesh"
	"phastlane/internal/stats"
)

// scriptNet is a one-node network whose deliveries a test scripts: Step
// returns the deliveries queued since the previous Step.
type scriptNet struct {
	run  stats.Run
	next []Delivery
}

func (s *scriptNet) Nodes() int              { return 1 }
func (s *scriptNet) NICFree(mesh.NodeID) int { return 1 }
func (s *scriptNet) Inject(Message)          {}
func (s *scriptNet) Quiescent() bool         { return len(s.next) == 0 }
func (s *scriptNet) Run() *stats.Run         { return &s.run }

func (s *scriptNet) Step(buf []Delivery) []Delivery {
	buf = append(buf, s.next...)
	s.next = s.next[:0]
	return buf
}

// deliver queues id's delivery for the next Step.
func (s *scriptNet) deliver(id uint64) { s.next = append(s.next, Delivery{MsgID: id}) }

// window drives a rate-run ledger over a scriptNet: each call to send
// injects the next ID in order, delivers the IDs queued with it, and steps
// one cycle.
type window struct {
	net  *scriptNet
	res  Result
	l    *ledger
	next uint64
}

func newWindow() *window {
	w := &window{net: &scriptNet{}, next: 1}
	w.l = newLedger(w.net, &w.res, nil, nil, nil, nil)
	return w
}

var oneDst = []mesh.NodeID{0}

// send injects one message and steps the cycle with the given deliveries;
// it returns the injected ID.
func (w *window) send(deliver ...uint64) uint64 {
	id := w.next
	w.next++
	w.l.inject(Message{ID: id, Dsts: oneDst}, w.l.cycle, true)
	for _, d := range deliver {
		w.net.deliver(d)
	}
	w.l.step()
	return id
}

// stream sends n messages, each delivered 63 cycles after its injection
// (so 64 are outstanding after each injection and every latency is 64
// cycles), and returns the largest table capacity it saw. Messages sent
// before it must already be resolved or held.
func (w *window) stream(n int) (maxCap int) {
	first := w.next
	for i := 0; i < n; i++ {
		var due []uint64
		if id := w.next; id >= first+63 {
			due = append(due, id-63)
		}
		w.send(due...)
		maxCap = max(maxCap, cap(w.l.states))
	}
	// Drain the last 63 on the same schedule.
	for id := max(w.next-63, first); id < w.next; id++ {
		w.net.deliver(id)
		w.l.step()
	}
	return maxCap
}

// A rate run with a bounded number of messages outstanding keeps a
// bounded state table however long it runs, and every message still
// resolves with its own latency.
func TestLedgerWindowBounded(t *testing.T) {
	const msgs = 1_000_000
	w := newWindow()
	maxCap := w.stream(msgs)
	if maxCap >= 4096 {
		t.Errorf("state table reached capacity %d over %d messages with 64 outstanding, want < 4096", maxCap, msgs)
	}
	lat := &w.res.Run.Latency
	if lat.Count() != msgs || lat.Percentile(0.001) != 64 || lat.Max() != 64 || w.l.inFlight != 0 {
		t.Errorf("%d samples in [%v, %v], %d in flight; want %d samples of 64 cycles, none in flight",
			lat.Count(), lat.Percentile(0.001), lat.Max(), w.l.inFlight, msgs)
	}
	if w.l.base <= msgs/2 {
		t.Errorf("base %d: the table never slid", w.l.base)
	}
}

// A message held unresolved pins the window's front: the records after it
// resolve, and the table grows rather than slide past it, for at least 100
// slides' worth of traffic. Delivered at last, it finishes with the
// latency of its own injection cycle, and the window slides on.
func TestLedgerWindowHoldsUnresolved(t *testing.T) {
	w := newWindow()
	// 1,500 outstanding, then the held message. Once the 1,500 resolve,
	// the next injection slides the held record to the table's front.
	for i := 0; i < 1500; i++ {
		w.send()
	}
	held, heldAt := w.send(), w.l.cycle-1
	for id := uint64(1); id < held; id++ {
		w.net.deliver(id)
	}
	w.l.step()
	w.stream(100 * slideFloor)
	if w.l.base != held || w.l.state(held) == nil {
		t.Fatalf("base %d after %d messages behind the held one, want %d (its ID)", w.l.base, 100*slideFloor, held)
	}
	w.net.deliver(held)
	w.l.step()
	want := float64(w.l.cycle - heldAt) // delivered in the cycle just stepped
	lat := &w.res.Run.Latency
	if lat.Max() != want || lat.Count() != int(w.next-1) || w.l.inFlight != 0 {
		t.Errorf("held message latency %v, %d samples, %d in flight; want %v, %d, 0",
			lat.Max(), lat.Count(), w.l.inFlight, want, w.next-1)
	}
	w.stream(4 * slideFloor)
	if w.l.base <= held {
		t.Errorf("base %d: the table did not slide once the held message %d resolved", w.l.base, held)
	}
}

// A delivery or a loss for a resolved message, slid off the table or not,
// changes nothing: no latency sample, no loss, no record.
func TestLedgerWindowIgnoresResolved(t *testing.T) {
	w := newWindow()
	w.stream(10 * slideFloor)
	l := w.l
	if l.base <= 2 || len(l.states) == 0 {
		t.Fatalf("base %d, %d records: want some slid off the table and some left in it", l.base, len(l.states))
	}
	slid, kept := l.base-1, l.base // kept is resolved and still in the table
	count, maxLat, states := w.res.Run.Latency.Count(), w.res.Run.Latency.Max(), slices.Clone(l.states)
	w.net.deliver(slid)
	w.net.deliver(kept)
	l.step()
	l.lose(Loss{MsgID: slid, Count: 1})
	l.lose(Loss{MsgID: kept, Count: 1})
	l.lose(Loss{MsgID: 1, Count: 1})
	if got := w.res.Run.Latency.Count(); got != count || w.res.Run.Latency.Max() != maxLat {
		t.Errorf("latency samples %d (max %v) after stale deliveries, want %d (max %v)",
			got, w.res.Run.Latency.Max(), count, maxLat)
	}
	if w.res.Lost != 0 || l.inFlight != 0 {
		t.Errorf("Lost %d, in flight %d after stale losses, want 0 and 0", w.res.Lost, l.inFlight)
	}
	if !reflect.DeepEqual(l.states, states) {
		t.Error("stale deliveries or losses changed the state table")
	}
}
