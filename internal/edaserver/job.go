package edaserver

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"llm4eda/eda"
	"llm4eda/internal/obs"
)

// Job states. queued and running are live; done, failed and cancelled are
// terminal.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// job is one submitted run moving through the queue.
type job struct {
	id      string
	key     string // content key of the normalized spec
	spec    eda.Spec
	created time.Time
	events  *broadcaster
	// spans is the job's phase-duration recorder, pre-seeded with the
	// canonical phases (obs.JobPhases) so a terminal breakdown always
	// lists all of them — a cached hit reports sim == 0, not a missing
	// row. It rides the job context into eda.Run and the farm.
	spans *obs.Spans

	mu         sync.Mutex
	state      string
	cached     bool   // report served from the report store
	errDetail  string // terminal failure/cancellation detail
	reportJSON []byte // shared wire-format report bytes (possibly partial)
	cancel     func() // cancels the running job's context
	// enqueued is when the job entered the queue, zero when it never
	// queued (answered from the report cache at submission) or once its
	// wait has ended: endWaitLocked records the wait as the queue_wait
	// span at the pop or when the job ends while still queued.
	enqueued time.Time
	// wedged marks that the watchdog cancelled this job for event
	// staleness; set before the cancel so the worker can tell a watchdog
	// kill (terminal failed) from a client cancel (terminal cancelled).
	wedged    bool
	wedgeIdle time.Duration
	// userCancel marks a DELETE on a running job, so a cancellation that
	// races the watchdog still finishes as the client-requested cancel.
	userCancel bool
}

// endWaitLocked ends the job's queue wait, once, recording it as the
// queue_wait phase. Callers hold jb.mu (then the spans lock inside
// Record — the same direction as status()).
func (jb *job) endWaitLocked() {
	if jb.enqueued.IsZero() {
		return
	}
	jb.spans.Record(obs.PhaseQueueWait, time.Since(jb.enqueued))
	jb.enqueued = time.Time{}
}

// terminal reports whether the job has reached a final state.
func (jb *job) terminal() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	switch jb.state {
	case stateDone, stateFailed, stateCancelled:
		return true
	}
	return false
}

// numbered pairs one event with its position in the job's stream.
// Sequence numbers are 1-based, assigned at Emit, and stable across
// ring eviction — they are what lets an SSE client resume a broken
// stream with Last-Event-ID instead of re-reading (or losing) history.
type numbered struct {
	seq uint64
	ev  eda.Event
}

// broadcaster is one job's event channel: a bounded replay ring read by
// any number of SSE subscribers. It implements eda.Sink, so eda.Run
// streams straight into it from worker and pipeline goroutines. Emit
// never blocks: it signals each subscriber's wake channel without
// waiting. A subscriber is a cursor, the seq of the last event it wrote,
// and reads everything after it from the ring, so a slow subscriber
// misses only what the ring evicted. The ring grows geometrically up to
// capMax and is trimmed to the events actually emitted when the stream
// closes, so a quiet job (a cache hit emits two events) never pins a
// full-size buffer and finished jobs retain only their real history.
type broadcaster struct {
	// lastEmit is the wall-clock of the most recent Emit (unix nanos) —
	// the staleness clock the per-job watchdog polls without taking the
	// broadcaster lock.
	lastEmit atomic.Int64

	mu     sync.Mutex
	ring   []numbered
	capMax int
	start  int    // index of the oldest retained event
	n      int    // retained events
	total  uint64 // events ever emitted; the newest event's seq
	subs   map[chan struct{}]struct{}
	closed bool
}

func newBroadcaster(history int) *broadcaster {
	return &broadcaster{capMax: history}
}

// touch resets the staleness clock; Emit does it implicitly, the worker
// does it explicitly when the job starts running.
func (b *broadcaster) touch() {
	b.lastEmit.Store(time.Now().UnixNano())
}

// idle returns how long ago the last event was emitted (or touch called).
func (b *broadcaster) idle() time.Duration {
	return time.Duration(time.Now().UnixNano() - b.lastEmit.Load())
}

// Emit records the event in the replay ring (growing it up to capMax,
// then evicting the oldest) and wakes every subscriber without blocking.
func (b *broadcaster) Emit(ev eda.Event) {
	b.touch()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if b.n == len(b.ring) && len(b.ring) < b.capMax {
		grown := len(b.ring) * 2
		if grown == 0 {
			grown = 16
		}
		if grown > b.capMax {
			grown = b.capMax
		}
		b.ring = b.copyOut(grown)
		b.start = 0
	}
	b.total++
	ne := numbered{seq: b.total, ev: ev}
	if b.n < len(b.ring) {
		b.ring[(b.start+b.n)%len(b.ring)] = ne
		b.n++
	} else {
		b.ring[b.start] = ne
		b.start = (b.start + 1) % len(b.ring)
	}
	b.wakeLocked()
}

// wakeLocked signals every subscriber. A wake-up already pending covers
// this one too: the subscriber reads everything past its cursor. Callers
// hold b.mu.
func (b *broadcaster) wakeLocked() {
	for ch := range b.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// copyOut returns the retained events in order in a slice of len size
// (size >= b.n). Callers hold b.mu.
func (b *broadcaster) copyOut(size int) []numbered {
	out := make([]numbered, size)
	for i := 0; i < b.n; i++ {
		out[i] = b.ring[(b.start+i)%len(b.ring)]
	}
	return out
}

// droppedCount reports how many events the ring has evicted: every
// emitted event is either retained or was evicted, so the count is
// total minus retained. It is also every event a subscriber can miss:
// subscribers read from the ring, so an event still retained always
// reaches them.
func (b *broadcaster) droppedCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - uint64(b.n)
}

// subscribe registers a wake channel that Emit and close signal. Its one
// slot coalesces the emits that land while the subscriber is writing
// into one read. Register before the first read, so an event emitted in
// between is read, signalled or both. On a closed stream the channel is
// nil: the first read reports the close. cancel detaches (idempotent).
func (b *broadcaster) subscribe() (wake <-chan struct{}, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, func() {}
	}
	ch := make(chan struct{}, 1)
	if b.subs == nil {
		b.subs = make(map[chan struct{}]struct{})
	}
	b.subs[ch] = struct{}{}
	return ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		delete(b.subs, ch)
	}
}

// read appends to buf the retained events after sequence number `after`
// (0 = from the beginning) and reports how many events of that range the
// ring already evicted, and whether the stream is closed — in which case
// the events returned run to the last one the job will ever emit.
func (b *broadcaster) read(after uint64, buf []numbered) (events []numbered, missed uint64, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	evicted := b.total - uint64(b.n) // seq of the newest evicted event, 0 for none
	if after < evicted {
		missed = evicted - after
		after = evicted
	}
	if after < b.total {
		buf = slices.Grow(buf, int(b.total-after))
		for i := int(after - evicted); i < b.n; i++ {
			buf = append(buf, b.ring[(b.start+i)%len(b.ring)])
		}
	}
	return buf, missed, b.closed
}

// close marks the stream complete, wakes every subscriber for its final
// read and trims the replay ring to the events actually emitted (the job
// table retains finished jobs, so spare ring capacity would otherwise be
// pinned until eviction). Safe to call more than once.
func (b *broadcaster) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.wakeLocked()
	b.subs = nil
	if b.n < len(b.ring) {
		b.ring = b.copyOut(b.n)
		b.start = 0
	}
}
