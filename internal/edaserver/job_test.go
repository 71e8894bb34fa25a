package edaserver

import (
	"strconv"
	"testing"

	"llm4eda/eda"
)

// FuzzBroadcasterCursor drives a broadcaster with a small history
// through emits, reads and closes taken from the fuzz input, and checks
// every step against a plain slice of everything emitted. Each op byte's
// low two bits pick the step: 0 and 1 emit, 3 closes, and 2 reads twice,
// once from a cursor taken from the byte's high bits (from before the
// oldest retained event to past the newest, as a resuming client might
// send) and once from a subscriber's cursor that, like the SSE handler,
// moves to the last event it read.
func FuzzBroadcasterCursor(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 2, 0, 0, 0, 0, 0, 6, 10, 3, 0, 2, 14})
	f.Add(uint8(1), []byte{0, 2, 0, 0, 2, 6, 3, 3, 2})
	f.Add(uint8(16), []byte{3, 0, 2})
	f.Add(uint8(3), []byte{0, 1, 0, 1, 0, 1, 0, 254, 250, 246, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 3, 2})
	f.Fuzz(func(t *testing.T, history uint8, ops []byte) {
		// A history of at most 8 wraps many times within 512 ops; a longer
		// input adds no behaviour, only exec and minimization time.
		capMax := int(history%8) + 1
		ops = ops[:min(len(ops), 512)]
		b := newBroadcaster(capMax)
		wake, cancel := b.subscribe()
		defer cancel()
		var all []string // Detail of every event emitted; event i has seq i+1
		closed := false
		var buf []numbered
		// check reads from after and returns the new cursor: the last
		// event read, or past the evicted ones when none was read.
		check := func(after uint64) uint64 {
			total := uint64(len(all))
			evicted := total - min(total, uint64(capMax))
			events, missed, isClosed := b.read(after, buf[:0])
			buf = events
			if want := evicted - min(evicted, after); missed != want {
				t.Fatalf("read(%d) after %d emits, history %d: missed %d, want %d",
					after, total, capMax, missed, want)
			}
			next := max(after, evicted) + 1
			if want := total + 1 - min(next, total+1); uint64(len(events)) != want {
				t.Fatalf("read(%d) after %d emits, history %d: %d events, want %d",
					after, total, capMax, len(events), want)
			}
			for i, ne := range events {
				seq := next + uint64(i)
				if ne.seq != seq || ne.ev.Detail != all[seq-1] {
					t.Fatalf("read(%d) event %d is seq %d %q, want seq %d %q",
						after, i, ne.seq, ne.ev.Detail, seq, all[seq-1])
				}
			}
			if isClosed != closed {
				t.Fatalf("read reports closed %v, want %v", isClosed, closed)
			}
			return max(after, next-1+uint64(len(events)))
		}
		var cursor uint64
		for _, op := range ops {
			switch op & 3 {
			case 0, 1:
				detail := strconv.Itoa(len(all) + 1)
				b.Emit(eda.Event{Kind: eda.EventNote, Detail: detail})
				woke := false
				select {
				case <-wake:
					woke = true
				default:
				}
				if !closed {
					all = append(all, detail)
				}
				if woke == closed {
					t.Fatalf("Emit with the stream closed=%v: wake-up pending %v", closed, woke)
				}
			case 2:
				check(uint64(op>>2) % (uint64(len(all)) + 3))
				if cursor = check(cursor); cursor != uint64(len(all)) {
					t.Fatalf("subscriber cursor at %d after its read, %d events emitted", cursor, len(all))
				}
			case 3:
				b.close()
				select {
				case <-wake:
					if closed {
						t.Fatal("a second close woke the subscriber")
					}
				default:
					if !closed {
						t.Fatal("close left no wake-up pending")
					}
				}
				closed = true
				if ch, _ := b.subscribe(); ch != nil {
					t.Fatal("subscribe on a closed stream returned a wake channel")
				}
			}
			total := uint64(len(all))
			if got, want := b.droppedCount(), total-min(total, uint64(capMax)); got != want {
				t.Fatalf("droppedCount %d after %d emits, history %d; want %d", got, total, capMax, want)
			}
		}
	})
}
