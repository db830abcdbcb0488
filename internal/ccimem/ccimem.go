// Package ccimem implements the CCI-unified memory address space of
// paper Sections II-C and IV-C: every memory device maps its local DRAM
// into one shared byte-addressable space, which the host CPU and other
// devices access with load/store instructions (the prototype exposes it
// as an mmap-able PCIe BAR region).
//
// The space is a flat 64-bit range carved into per-device windows. A
// first-fit allocator hands out regions inside a device's window; the
// memory devices use it to account their DRAM capacity. The space holds
// placement only, no bytes: timed access goes through the cci package's
// transfer models.
package ccimem

import (
	"fmt"
	"sort"
)

// Addr is a CCI-space address.
type Addr uint64

// WindowBits sets each device's window size: 40 bits = 1 TiB of
// address space per device, far above any physical DRAM, so window
// boundaries never constrain allocation.
const WindowBits = 40

// WindowSize is the per-device address window in bytes.
const WindowSize = 1 << WindowBits

// Space is the unified address space shared by the host and all memory
// devices.
type Space struct {
	devices []*Window
}

// NewSpace creates an empty address space.
func NewSpace() *Space { return &Space{} }

// AddDevice maps a new device's DRAM into the space and returns its
// window. capacity is the device's physical DRAM in bytes.
func (s *Space) AddDevice(name string, capacity int64) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("ccimem: device %q capacity %d", name, capacity))
	}
	if capacity > WindowSize {
		panic(fmt.Sprintf("ccimem: device %q capacity %d exceeds window", name, capacity))
	}
	w := &Window{
		Name:     name,
		Index:    len(s.devices),
		Base:     Addr(len(s.devices)) << WindowBits,
		Capacity: capacity,
	}
	s.devices = append(s.devices, w)
	return w
}

// Devices returns the mapped windows in device order.
func (s *Space) Devices() []*Window { return s.devices }

// Window is one device's slice of the unified space plus a first-fit
// allocator over its physical DRAM.
type Window struct {
	Name     string
	Index    int
	Base     Addr
	Capacity int64

	allocs []span // sorted by offset
}

type span struct {
	off  int64
	size int64
}

// Used returns the allocated bytes.
func (w *Window) Used() int64 {
	var total int64
	for _, s := range w.allocs {
		total += s.size
	}
	return total
}

// Region is an allocated range of CCI memory.
type Region struct {
	window *Window
	Addr   Addr
	Size   int64
}

// Alloc reserves size bytes in the device's DRAM using first-fit and
// returns the region, or an error when fragmented space cannot fit it.
func (w *Window) Alloc(size int64) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("ccimem: alloc %d", size)
	}
	off := int64(0)
	idx := len(w.allocs)
	for i, s := range w.allocs {
		if s.off-off >= size {
			idx = i
			break
		}
		off = s.off + s.size
	}
	if size > w.Capacity-off { // off+size could overflow
		return nil, fmt.Errorf("ccimem: device %q cannot fit %d (used %d of %d)", w.Name, size, w.Used(), w.Capacity)
	}
	w.allocs = append(w.allocs, span{})
	copy(w.allocs[idx+1:], w.allocs[idx:])
	w.allocs[idx] = span{off: off, size: size}
	return &Region{window: w, Addr: w.Base + Addr(off), Size: size}, nil
}

// Free releases a region back to its window's allocator.
func (r *Region) Free() {
	w := r.window
	off := int64(r.Addr - w.Base)
	for i, s := range w.allocs {
		if s.off == off && s.size == r.Size {
			w.allocs = append(w.allocs[:i], w.allocs[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("ccimem: double free of %#x", uint64(r.Addr)))
}

// Device returns the window owning the region.
func (r *Region) Device() *Window { return r.window }

// CheckInvariants verifies the allocator's bookkeeping: spans sorted,
// non-overlapping, within capacity.
func (w *Window) CheckInvariants() error {
	if !sort.SliceIsSorted(w.allocs, func(i, j int) bool { return w.allocs[i].off < w.allocs[j].off }) {
		return fmt.Errorf("ccimem: %q spans unsorted", w.Name)
	}
	prevEnd := int64(0)
	for _, s := range w.allocs {
		if s.off < prevEnd {
			return fmt.Errorf("ccimem: %q spans overlap at %d", w.Name, s.off)
		}
		if s.size > w.Capacity-s.off {
			return fmt.Errorf("ccimem: %q span at %d exceeds capacity", w.Name, s.off)
		}
		prevEnd = s.off + s.size
	}
	return nil
}
