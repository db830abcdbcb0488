package core

import (
	"fmt"

	"coarse/internal/cci"
	"coarse/internal/memdev"
	"coarse/internal/profiler"
	"coarse/internal/sim"
	"coarse/internal/tensor"
	"coarse/internal/topology"
)

// Session is COARSE's standalone parameter-server interface (paper
// Section III: "COARSE provides a parameter server push/pull interface
// for easy integration"). Outside the trainer, a framework integration
// drives one Client per worker: Push hands over a locally computed
// gradient tensor, and Pull returns the synchronized (averaged) tensor
// once every client's contribution has arrived and the memory devices
// have run the collective.
//
// The session is deterministic and simulation-backed: pushes travel the
// routed fabric paths, synchronization runs on the sync-core groups,
// and Drain advances virtual time until all outstanding work completes.
type Session struct {
	Opts    Options
	machine *topology.Machine
	fabric  *cci.Fabric
	pool    *memdev.Pool
	tables  []profiler.Table
	local   []int
	clients []*Client
	rr      int

	pending map[string]*pendingTensor
}

type pendingTensor struct {
	arrived int
	synced  bool
	sum     []float32
	waiters []func(*tensor.Tensor)
}

// Client is one worker's push/pull handle.
type Client struct {
	s *Session
	// Worker is the client's GPU endpoint.
	Worker *topology.Device
	index  int
}

// NewSession builds a session on a machine preset.
func NewSession(spec topology.Spec, opts Options) (*Session, error) {
	if opts.SyncGroups < 1 {
		opts.SyncGroups = 1
	}
	eng := sim.NewEngine()
	machine := topology.Build(eng, spec)
	if len(machine.Devs) == 0 {
		return nil, fmt.Errorf("coarse: machine %q has no memory devices", spec.Label)
	}
	fabric := cci.NewFabric(machine.Topology, cci.DefaultParams())
	s := &Session{
		Opts:    opts,
		machine: machine,
		fabric:  fabric,
		pool:    memdev.NewPool(fabric, machine.Devs, memdev.DefaultConfig(), opts.SyncGroups),
		pending: make(map[string]*pendingTensor),
	}
	prof := profiler.New(fabric)
	for i, w := range machine.Workers {
		s.tables = append(s.tables, prof.BuildTable(w, machine.Devs))
		local := 0
		bestLat := sim.Time(1<<62 - 1)
		for d, dev := range machine.Devs {
			if machine.SameSwitch(w, dev) {
				local = d
				break
			}
			if lat := machine.PathLatency(w, dev); lat < bestLat {
				bestLat = lat
				local = d
			}
		}
		s.local = append(s.local, local)
		s.clients = append(s.clients, &Client{s: s, Worker: w, index: i})
	}
	return s, nil
}

// Clients returns one handle per worker GPU.
func (s *Session) Clients() []*Client { return s.clients }

// Engine exposes the session's virtual clock.
func (s *Session) Engine() *sim.Engine { return s.machine.Topology.Eng }

// Drain runs the simulation until all outstanding pushes and pulls have
// completed and returns the virtual time reached.
func (s *Session) Drain() sim.Time { return s.Engine().Run() }

// Push submits the client's contribution for the named tensor. Once
// every client has pushed the same tensor name, the memory devices
// synchronize it (averaging across clients) and queued pulls complete.
// The tensor's data is captured at call time. The first push of a name
// since the last Reset fixes its length; a later push of another length
// is rejected and nothing is sent.
func (c *Client) Push(t *tensor.Tensor) error {
	s := c.s
	p := s.tensorState(t.Name, len(t.Data))
	if len(p.sum) != len(t.Data) {
		return fmt.Errorf("coarse: push of %q with %d elems, expected %d", t.Name, len(t.Data), len(p.sum))
	}
	data := append([]float32(nil), t.Data...)
	size := t.SizeBytes()
	dst := s.local[c.index]
	if s.Opts.Routing {
		dst = s.tables[c.index].Route(size)
	}
	s.fabric.DMACopy(c.Worker, s.pool.Devices[dst].Dev, size, func() {
		tensor.AddSlice(p.sum, data)
		p.arrived++
		if p.arrived < len(s.clients) {
			return
		}
		group := s.pool.Group(s.rr)
		s.rr++
		group.AllReduceBytes(size, func() {
			inv := 1 / float32(len(s.clients))
			for i := range p.sum {
				p.sum[i] *= inv
			}
			p.synced = true
			for _, w := range p.waiters {
				w(tensor.FromData(t.Name, append([]float32(nil), p.sum...)))
			}
			p.waiters = nil
		})
	})
	return nil
}

// Pull requests the synchronized value of the named tensor; fn runs
// (with a private copy) once synchronization completes and the pull
// transfer lands back at the client.
func (c *Client) Pull(name string, fn func(*tensor.Tensor)) {
	s := c.s
	deliver := func(t *tensor.Tensor) {
		src := s.local[c.index]
		if s.Opts.Routing {
			src = s.tables[c.index].Route(t.SizeBytes())
		}
		s.fabric.DMACopy(s.pool.Devices[src].Dev, c.Worker, t.SizeBytes(), func() {
			fn(t)
		})
	}
	p, ok := s.pending[name]
	if ok && p.synced {
		deliver(tensor.FromData(name, append([]float32(nil), p.sum...)))
		return
	}
	if !ok {
		// Pull before any push: queue against a placeholder whose size
		// the first push fixes.
		p = &pendingTensor{}
		s.pending[name] = p
	}
	p.waiters = append(p.waiters, deliver)
}

func (s *Session) tensorState(name string, elems int) *pendingTensor {
	p, ok := s.pending[name]
	if !ok {
		p = &pendingTensor{}
		s.pending[name] = p
	}
	if p.sum == nil {
		p.sum = make([]float32, elems)
	}
	return p
}

// Reset clears synchronized state so tensor names can be reused for the
// next iteration's round of pushes.
func (s *Session) Reset() {
	s.pending = make(map[string]*pendingTensor)
}
