// Package memdev models the CCI disaggregated memory device of paper
// Section IV-A: a large on-device DRAM, an on-device processor, and a
// set of specialized near-memory sync cores that execute parameter
// synchronization with ring collectives over the CCI links.
//
// Each sync core owns a RecvBuf/LocalBuf/SendBuf triple and a bank of
// ALUs. Synchronization is group-based: group g consists of the g-th
// sync core of every device, rings run in alternating directions so
// adjacent groups fill both directions of each full-duplex CCI link
// (Figure 11b), and each group processes its share of the parameter
// volume chunk by chunk (Figure 11c). Sync groups time bytes: DRAM
// staging, ALU throughput and ring transfers are charged to virtual
// time.
package memdev

import (
	"fmt"

	"coarse/internal/cci"
	"coarse/internal/ccimem"
	"coarse/internal/collective"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

// Config sizes a memory device.
type Config struct {
	// DRAMBytes is the on-device memory capacity (the extended parameter
	// storage that lets COARSE hold optimizer state off-GPU).
	DRAMBytes int64
	// DRAMBW is the on-device DRAM bandwidth in bytes/sec.
	DRAMBW float64
	// SyncCores is the number of sync cores (== maximum parallel groups).
	SyncCores int
	// BufEntries is the RecvBuf/LocalBuf/SendBuf capacity in float32
	// entries.
	BufEntries int
	// ALUBytesPerSec is one core's reduction throughput.
	ALUBytesPerSec float64
}

// DefaultConfig returns a device modeled after a product-scale CCI
// memory expander: 96 GB DRAM, DDR-class bandwidth, 8 sync cores.
func DefaultConfig() Config {
	return Config{
		DRAMBytes:      96 << 30,
		DRAMBW:         20e9,
		SyncCores:      8,
		BufEntries:     4096,
		ALUBytesPerSec: 16e9,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.DRAMBytes <= 0:
		return fmt.Errorf("memdev: DRAMBytes %d", c.DRAMBytes)
	case c.DRAMBW <= 0:
		return fmt.Errorf("memdev: DRAMBW %v", c.DRAMBW)
	case c.SyncCores <= 0:
		return fmt.Errorf("memdev: SyncCores %d", c.SyncCores)
	case c.BufEntries <= 0:
		return fmt.Errorf("memdev: BufEntries %d", c.BufEntries)
	case c.ALUBytesPerSec <= 0:
		return fmt.Errorf("memdev: ALUBytesPerSec %v", c.ALUBytesPerSec)
	}
	return nil
}

// Device is one disaggregated memory device.
type Device struct {
	Dev    *topology.Device
	Config Config
	// Window is the device's slice of the CCI-unified address space;
	// allocations come out of it (paper Section II-C: devices map their
	// DRAM into a shared byte-addressable space).
	Window *ccimem.Window
}

// NewDevice binds a memory device model to a topology endpoint, mapping
// its DRAM into a fresh single-device address space. Pools map all
// their devices into one shared space instead.
func NewDevice(dev *topology.Device, cfg Config) *Device {
	return newDevice(dev, cfg, ccimem.NewSpace())
}

func newDevice(dev *topology.Device, cfg Config, space *ccimem.Space) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if dev.Kind != topology.KindMemDev {
		panic(fmt.Sprintf("memdev: %s is not a memory device", dev))
	}
	return &Device{
		Dev:    dev,
		Config: cfg,
		Window: space.AddDevice(dev.Name, cfg.DRAMBytes),
	}
}

// Alloc reserves DRAM in the device's CCI window, reporting failure
// when the capacity is exceeded.
func (d *Device) Alloc(bytes int64) error {
	if bytes < 0 {
		panic(fmt.Sprintf("memdev: negative allocation %d", bytes))
	}
	_, err := d.Window.Alloc(bytes)
	return err
}

// Used returns allocated DRAM bytes.
func (d *Device) Used() int64 { return d.Window.Used() }

// DRAMTime returns the time to stream bytes through the device DRAM.
func (d *Device) DRAMTime(bytes int64) sim.Time {
	return sim.Seconds(float64(bytes) / d.Config.DRAMBW)
}

// Pool is the set of memory devices participating in decentralized
// parameter synchronization, with their sync groups.
type Pool struct {
	Fabric  *cci.Fabric
	Topo    *topology.Topology
	Devices []*Device
	// Space is the CCI-unified address space shared by all devices in
	// the pool.
	Space  *ccimem.Space
	groups []*SyncGroup
}

// NewPool creates one Device per topology endpoint and builds the
// requested number of sync groups (capped by the core count). Ring
// transfers go through the CCI fabric, so on machines without
// peer-to-peer support (where memory devices are GPU-emulated, paper
// Section IV-B) they bounce through host memory like everything else.
func NewPool(fabric *cci.Fabric, endpoints []*topology.Device, cfg Config, groups int) *Pool {
	if len(endpoints) == 0 {
		panic("memdev: empty pool")
	}
	p := &Pool{Fabric: fabric, Topo: fabric.Topo, Space: ccimem.NewSpace()}
	for _, ep := range endpoints {
		p.Devices = append(p.Devices, newDevice(ep, cfg, p.Space))
	}
	if groups < 1 {
		groups = 1
	}
	if groups > cfg.SyncCores {
		groups = cfg.SyncCores
	}
	for g := 0; g < groups; g++ {
		p.groups = append(p.groups, newSyncGroup(p, g))
	}
	return p
}

// Groups returns the pool's sync groups.
func (p *Pool) Groups() []*SyncGroup { return p.groups }

// Group returns group i modulo the group count, the round-robin the
// proxies use to spread tensors.
func (p *Pool) Group(i int) *SyncGroup { return p.groups[i%len(p.groups)] }

// SyncGroup is the g-th sync core of every device plus the ring that
// connects them. Odd groups run their ring in reverse so that adjacent
// groups load opposite link directions.
type SyncGroup struct {
	pool    *Pool
	Index   int
	Reverse bool
	ring    *collective.Ring
	// A group's sync core runs one collective at a time; later requests
	// queue FIFO behind the running one. queue[head:] is waiting.
	queue   []*syncTask
	head    int
	running bool
	tasks   *sim.FreeList[syncTask]
}

// syncTask is one queued synchronization. Its callbacks are bound once
// per object, and the record is recycled as it finishes.
type syncTask struct {
	g        *SyncGroup
	bytes    int64
	stage    sim.Time // DRAM staging time, each way
	detailed bool     // AllReduceDetailed's chunked pipeline
	onDone   func()

	run, staged, reduced, finished func()
}

func newSyncGroup(p *Pool, index int) *SyncGroup {
	g := &SyncGroup{pool: p, Index: index, Reverse: index%2 == 1, tasks: sim.NewFreeList[syncTask](p.Topo.Eng)}
	n := len(p.Devices)
	send := func(i int, reverse bool, size int64, onDone func()) {
		j := (i + 1) % n
		if reverse {
			j = (i - 1 + n) % n
		}
		if n == 1 {
			p.Topo.Eng.Schedule(0, onDone)
			return
		}
		if p.Topo.P2PSupported {
			// Real sync cores write the peer's CCI-mapped RecvBuf with
			// direct load/store transactions — no DMA descriptor setup,
			// just the fabric (paper Section IV-A).
			p.Topo.TransferEphemeral(p.Devices[i].Dev, p.Devices[j].Dev, size, onDone)
			return
		}
		// GPU-emulated devices on no-P2P machines bounce through host
		// memory like any other copy (paper Section IV-B).
		p.Fabric.DMACopy(p.Devices[i].Dev, p.Devices[j].Dev, size, onDone)
	}
	g.ring = collective.NewRing(p.Topo.Eng, n, send)
	g.ring.ALUBytesPerSec = p.Devices[0].Config.ALUBytesPerSec
	return g
}

// QueueDepth reports how many synchronizations are waiting on or
// running in this group.
func (g *SyncGroup) QueueDepth() int {
	n := len(g.queue) - g.head
	if g.running {
		n++
	}
	return n
}

// AllReduceBytes synchronizes a payload of the given size across the
// group's devices, charging DRAM staging, ring transfer and ALU time.
// Requests on a busy group queue FIFO — the group's sync core is a
// serial resource.
func (g *SyncGroup) AllReduceBytes(bytes int64, onDone func()) {
	g.enqueue(bytes, false, onDone)
}

// enqueue queues one synchronization and starts it when the group is
// idle.
func (g *SyncGroup) enqueue(bytes int64, detailed bool, onDone func()) {
	t := g.tasks.Get()
	if t == nil {
		t = &syncTask{g: g}
		t.run = t.start
		t.staged = t.ringReduce
		t.reduced = t.stageOut
		t.finished = t.finish
	}
	t.bytes, t.detailed, t.onDone = bytes, detailed, onDone
	if !detailed {
		t.stage = g.pool.Devices[0].DRAMTime(bytes)
	}
	if g.head > 0 && len(g.queue) == cap(g.queue) {
		// Slide the waiting tasks down rather than grow the queue.
		n := copy(g.queue, g.queue[g.head:])
		clear(g.queue[n:])
		g.queue, g.head = g.queue[:n], 0
	}
	g.queue = append(g.queue, t)
	g.pump()
}

func (g *SyncGroup) pump() {
	if g.running || g.head == len(g.queue) {
		return
	}
	g.running = true
	t := g.queue[g.head]
	g.queue[g.head] = nil
	g.head++
	if g.head == len(g.queue) {
		g.queue, g.head = g.queue[:0], 0
	}
	t.run()
}

func (t *syncTask) start() {
	if t.detailed {
		t.g.runDetailed(t.bytes, t.finished)
		return
	}
	// Stage in: every device streams its chunk from DRAM to LocalBuf.
	t.g.pool.Topo.Eng.Schedule(t.stage, t.staged)
}

func (t *syncTask) ringReduce() { t.g.ring.AllReduceBytes(t.bytes, t.g.Reverse, t.reduced) }

// stageOut writes the reduced data back to DRAM.
func (t *syncTask) stageOut() { t.g.pool.Topo.Eng.Schedule(t.stage, t.finished) }

// finish frees the group's sync core for the next queued task, then
// reports completion.
func (t *syncTask) finish() {
	g, onDone := t.g, t.onDone
	t.onDone = nil
	g.tasks.Put(t)
	g.running = false
	g.pump()
	if onDone != nil {
		onDone()
	}
}
