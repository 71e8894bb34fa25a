package edaserver

import (
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
	// wait has ended; queueWait is that enqueue→worker-pop wait, fixed by
	// endWaitLocked at the pop or when the job ends while still queued.
	enqueued  time.Time
	queueWait time.Duration
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
	jb.queueWait = time.Since(jb.enqueued)
	jb.spans.Record(obs.PhaseQueueWait, jb.queueWait)
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

// broadcaster is one job's event channel: a bounded replay ring feeding
// any number of SSE subscribers. It implements eda.Sink, so eda.Run
// streams straight into it from worker and pipeline goroutines; Emit
// never blocks (a slow subscriber drops events rather than stalling the
// run). The ring grows geometrically up to capMax and is trimmed to the
// events actually emitted when the stream closes, so a quiet job (a
// cache hit emits two events) never pins a full-size buffer and finished
// jobs retain only their real history.
type broadcaster struct {
	// lastEmit is the wall-clock of the most recent Emit (unix nanos) —
	// the staleness clock the per-job watchdog polls without taking the
	// broadcaster lock.
	lastEmit atomic.Int64

	mu      sync.Mutex
	ring    []numbered
	capMax  int
	start   int    // index of the oldest retained event
	n       int    // retained events
	total   uint64 // events ever emitted; the newest event's seq
	subs    map[int]chan numbered
	nextSub int
	closed  bool
}

func newBroadcaster(history int) *broadcaster {
	return &broadcaster{
		capMax: history,
		subs:   make(map[int]chan numbered),
	}
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
// then evicting the oldest) and forwards it to every live subscriber
// without blocking.
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
	for _, ch := range b.subs {
		select {
		case ch <- ne:
		default: // slow subscriber: drop rather than stall the run
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
// total minus retained. Slow-subscriber channel drops are a per-
// subscriber affair and not counted here — the replay ring is the
// ground truth a resuming subscriber reads from.
func (b *broadcaster) droppedCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - uint64(b.n)
}

// subscribe returns the retained history after sequence number `after`
// (0 = from the beginning), how many of the requested events the ring
// already evicted, and a live channel that closes when the job
// finishes. The replay snapshot and the registration happen under one
// lock, so no event falls between them. On an already-finished job the
// channel is nil. cancel detaches the subscriber (idempotent).
func (b *broadcaster) subscribe(after uint64, buf int) (replay []numbered, missed uint64, ch chan numbered, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	oldest := b.total - uint64(b.n) + 1 // seq of the oldest retained event
	from := after + 1
	if from < oldest {
		missed = oldest - from
		from = oldest
	}
	if b.total >= from {
		replay = make([]numbered, 0, b.total-from+1)
		for i := int(from - oldest); i < b.n; i++ {
			replay = append(replay, b.ring[(b.start+i)%len(b.ring)])
		}
	}
	if b.closed {
		return replay, missed, nil, func() {}
	}
	id := b.nextSub
	b.nextSub++
	ch = make(chan numbered, buf)
	b.subs[id] = ch
	return replay, missed, ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[id]; ok {
			delete(b.subs, id)
			close(ch)
		}
	}
}

// close marks the stream complete, releases every subscriber and trims
// the replay ring to the events actually emitted (the job table retains
// finished jobs, so spare ring capacity would otherwise be pinned until
// eviction). Safe to call more than once.
func (b *broadcaster) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, ch := range b.subs {
		delete(b.subs, id)
		close(ch)
	}
	if b.n < len(b.ring) {
		b.ring = b.copyOut(b.n)
		b.start = 0
	}
}
