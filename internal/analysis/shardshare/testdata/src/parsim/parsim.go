package parsim

// Engine stands in for the parsim coordinator: shared state that only
// barrier-time code may touch.
type Engine struct {
	now    int
	frames [][]int
	seq    []int
	routes [][]int
	stats  int
	work   []chan int
	done   chan struct{}
}

var global int

// New launches the shard workers; New itself runs on the coordinator.
func New(e *Engine) {
	e.now = 0 // coordinator context: fine
	for i := range e.work {
		go e.worker(i, e.work[i])
	}
	go func() {
		e.stats++ // want `write to shared coordinator state`
	}()
}

func (e *Engine) worker(i int, ch chan int) {
	for range ch {
		e.now = 1 // want `write to shared coordinator state`
		e.helper()
		e.done <- struct{}{} // channel send: communication, fine
		var local struct{ n int }
		local.n++ // field of a function-local value: fine
		k := 0
		k++        // plain local: fine
		global = k // want `write to shared coordinator state`
	}
}

// helper is shard context by propagation: worker calls it.
func (e *Engine) helper() (err error) {
	defer func() {
		if recover() != nil {
			err = nil // named result: a plain local, fine
		}
	}()
	e.stats++ // want `write to shared coordinator state`
	return nil
}

// coordinatorDrain is never reached from shard context.
func (e *Engine) coordinatorDrain() {
	e.stats++ // coordinator context: fine
}

// exchange implements the RemoteExchange capture surface, making all
// its methods shard context.
type exchange struct {
	e     *Engine
	shard int
}

// RemoteFrame is the sanctioned capture path: per-shard appends the
// coordinator drains at the barrier.
func (x *exchange) RemoteFrame(v int) {
	x.e.frames[x.shard] = append(x.e.frames[x.shard], v)
	x.e.seq[x.shard]++
}

// DeferRoute is the sanctioned route-capture path, on the engine
// itself; sideDoor calling it makes it shard context.
func (e *Engine) DeferRoute(srcShard, op int) {
	e.routes[srcShard] = append(e.routes[srcShard], op)
}

func (x *exchange) sideDoor(v int) {
	x.e.DeferRoute(x.shard, v)
	x.e.stats = v // want `write to shared coordinator state`
}

func (x *exchange) allowed(v int) {
	//ampvet:allow shardshare pinned by a barrier in the caller
	x.e.stats = v
}
