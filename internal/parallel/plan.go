package parallel

import (
	"fmt"

	"coarse/internal/model"
)

// Coord is one worker's position in the layout grid.
type Coord struct {
	DP int // data-parallel replica index, 0..DPEff-1
	PP int // pipeline stage
	TP int // tensor-parallel rank within the stage
	EP int // expert-parallel rank
}

// Plan is a validated layout bound to a world size and a model: the
// worker coordinate grid, the contiguous stage partition of the layer
// list, and the gradient reduction trees each layer synchronizes over.
//
// Rank order is TP innermost, then EP, then PP, then DP:
//
//	w = tp + TP*(ep + EP*(pp + PP*dp))
//
// so a TP group is TP adjacent ranks (same node whenever TP divides
// the node's GPU count), an EP group strides by TP, a pipeline
// neighbor strides by TP·EP, and data-parallel peers stride by
// TP·EP·PP — the widest, most topology-spanning communicator, which is
// exactly why the collective planner matters for it.
type Plan struct {
	Layout Layout
	World  int
	// DPEff is the effective data-parallel width: the declared DP times
	// the leftover factor world/(DP·PP·TP·EP).
	DPEff int
	PP    int
	TP    int
	EP    int
	// Micro is the number of microbatches per iteration (>= 1).
	Micro int

	Model  *model.Model
	Coords []Coord // per worker
	Stages [][]int // stage -> global layer indices, contiguous

	stageOf []int   // layer -> owning stage
	groups  [][]int // group id -> sorted member workers
	// groupLayers[gid] lists the layers a group reduces, forward order.
	groupLayers [][]int
}

// NewPlan binds a layout to a world size and model. It validates that
// the product divides the world, that there are at least PP layers to
// form stages from, and that expert parallelism has MoE layers whose
// expert counts split evenly EP ways.
func NewPlan(l Layout, world int, m *model.Model) (*Plan, error) {
	if m == nil || len(m.Layers) == 0 {
		return nil, fmt.Errorf("parallel: nil or empty model")
	}
	if err := l.Validate(world); err != nil {
		return nil, err
	}
	dp, pp, tp, ep := l.norm()
	if pp > len(m.Layers) {
		return nil, fmt.Errorf("parallel: %d pipeline stages for %d layers", pp, len(m.Layers))
	}
	if ep > 1 {
		moe := 0
		for _, layer := range m.Layers {
			if layer.MoE == nil {
				continue
			}
			moe++
			if layer.MoE.Experts%ep != 0 {
				return nil, fmt.Errorf("parallel: layer %s has %d experts, not divisible by EP %d",
					layer.Name, layer.MoE.Experts, ep)
			}
		}
		if moe == 0 {
			return nil, fmt.Errorf("parallel: EP %d on model %s with no MoE layers", ep, m.Name)
		}
	}
	micro := l.Micro
	if micro == 0 {
		micro = pp
	}

	p := &Plan{
		Layout: l,
		World:  world,
		DPEff:  dp * (world / (dp * pp * tp * ep)),
		PP:     pp,
		TP:     tp,
		EP:     ep,
		Micro:  micro,
		Model:  m,
	}

	p.Coords = make([]Coord, world)
	for w := 0; w < world; w++ {
		p.Coords[w] = Coord{
			TP: w % tp,
			EP: (w / tp) % ep,
			PP: (w / (tp * ep)) % pp,
			DP: w / (tp * ep * pp),
		}
	}

	// Contiguous stage partition, balanced by layer count: stage s owns
	// layers [s*L/PP, (s+1)*L/PP). Deterministic and exact.
	L := len(m.Layers)
	p.stageOf = make([]int, L)
	p.Stages = make([][]int, pp)
	for s := 0; s < pp; s++ {
		lo, hi := s*L/pp, (s+1)*L/pp
		for layer := lo; layer < hi; layer++ {
			p.Stages[s] = append(p.Stages[s], layer)
			p.stageOf[layer] = s
		}
	}

	p.buildGroups()
	return p, nil
}

// worker inverts the coordinate map.
func (p *Plan) worker(dp, pp, tp, ep int) int {
	return tp + p.TP*(ep+p.EP*(pp+p.PP*dp))
}

// buildGroups materializes every gradient reduction tree. Dense layers
// are replicated across both the DP and the EP dimensions (expert
// parallelism only shards expert parameters), so a dense tree holds the
// DPEff·EP workers sharing (stage, tp). Expert layers shard across EP,
// so an expert tree holds the DPEff workers sharing (stage, tp, ep).
// Group ids are dense trees first (s·TP + tp), expert trees after
// (PP·TP + (s·TP+tp)·EP + ep); members are ascending by construction.
func (p *Plan) buildGroups() {
	denseGroups := p.PP * p.TP
	p.groups = make([][]int, denseGroups+denseGroups*p.EP)
	for s := 0; s < p.PP; s++ {
		for tp := 0; tp < p.TP; tp++ {
			gid := s*p.TP + tp
			members := make([]int, 0, p.DPEff*p.EP)
			for dp := 0; dp < p.DPEff; dp++ {
				for ep := 0; ep < p.EP; ep++ {
					members = append(members, p.worker(dp, s, tp, ep))
				}
			}
			p.groups[gid] = members
			for ep := 0; ep < p.EP; ep++ {
				egid := denseGroups + gid*p.EP + ep
				emembers := make([]int, 0, p.DPEff)
				for dp := 0; dp < p.DPEff; dp++ {
					emembers = append(emembers, p.worker(dp, s, tp, ep))
				}
				p.groups[egid] = emembers
			}
		}
	}

	p.groupLayers = make([][]int, len(p.groups))
	for layer := range p.Model.Layers {
		for _, gid := range p.LayerGroups(layer) {
			p.groupLayers[gid] = append(p.groupLayers[gid], layer)
		}
	}
}

// expertSharded reports whether a layer's parameters split across the
// EP dimension. With EP == 1 expert layers behave exactly like dense
// ones (same groups, same volumes), so only EP > 1 switches trees.
func (p *Plan) expertSharded(l model.Layer) bool { return l.MoE != nil && p.EP > 1 }

// StageOf returns the pipeline stage owning a layer.
func (p *Plan) StageOf(layer int) int { return p.stageOf[layer] }

// OwnsLayer reports whether worker w's stage holds a layer.
func (p *Plan) OwnsLayer(w, layer int) bool { return p.Coords[w].PP == p.stageOf[layer] }

// GroupID returns the id of the reduction tree worker w joins for a
// layer, or -1 when w's stage does not own the layer.
func (p *Plan) GroupID(w, layer int) int {
	c := p.Coords[w]
	s := p.stageOf[layer]
	if c.PP != s {
		return -1
	}
	base := s*p.TP + c.TP
	if p.expertSharded(p.Model.Layers[layer]) {
		return p.PP*p.TP + base*p.EP + c.EP
	}
	return base
}

// Groups returns every reduction tree's sorted membership, indexed by
// group id. Dense trees come first, expert trees after; some trees may
// reduce no layers (expert trees of stages without MoE layers).
func (p *Plan) Groups() [][]int { return p.groups }

// GroupMembers returns one tree's sorted membership.
func (p *Plan) GroupMembers(gid int) []int { return p.groups[gid] }

// LayerGroups returns the ids of the trees reducing a layer: TP trees
// for a dense layer (one per tp), TP·EP for an expert-sharded one (one
// per (tp, ep)).
func (p *Plan) LayerGroups(layer int) []int {
	s := p.stageOf[layer]
	sharded := p.expertSharded(p.Model.Layers[layer])
	out := make([]int, 0, p.shardDiv(p.Model.Layers[layer]))
	for tp := 0; tp < p.TP; tp++ {
		base := s*p.TP + tp
		if !sharded {
			out = append(out, base)
			continue
		}
		for ep := 0; ep < p.EP; ep++ {
			out = append(out, p.PP*p.TP+base*p.EP+ep)
		}
	}
	return out
}

// GroupLayers returns the layers one tree reduces, in forward order.
func (p *Plan) GroupLayers(gid int) []int { return p.groupLayers[gid] }

// SyncTrees counts the (layer, tree) synchronization completions per
// iteration: every layer is reduced once by each of its trees.
func (p *Plan) SyncTrees() int {
	total := 0
	for _, l := range p.Model.Layers {
		total += p.shardDiv(l) // the layer's tree count
	}
	return total
}

// shardDiv returns the factor a layer's parameters shard by: TP for
// dense layers, TP·EP for expert-sharded ones.
func (p *Plan) shardDiv(l model.Layer) int {
	if p.expertSharded(l) {
		return p.TP * p.EP
	}
	return p.TP
}

// SyncBytes returns the gradient volume one reduction tree of a layer
// carries: the per-worker parameter shard. Summed over a layer's trees
// this re-covers the full layer volume (up to ceil rounding), which is
// the conservation property the equivalence tests pin.
func (p *Plan) SyncBytes(layer int) int64 {
	l := p.Model.Layers[layer]
	div := p.shardDiv(l)
	return 4 * int64(ceilDiv(l.ParamElems, div))
}

// LayerShard returns worker-local view of a layer: parameters and
// compute divided by the shard factor, activations split TP ways (the
// token/hidden dimension tensor parallelism slices; expert routing
// returns every token, so EP does not shrink activations).
func (p *Plan) LayerShard(layer int) model.Layer {
	l := p.Model.Layers[layer]
	div := p.shardDiv(l)
	l.ParamElems = ceilDiv(l.ParamElems, div)
	l.FwdFLOPs /= float64(div)
	l.ActBytes = ceilDiv64(l.ActBytes, int64(p.TP))
	return l
}

// WorkerModel returns the model slice worker w materializes: its
// stage's layers, each sharded. Memory feasibility and per-stage
// roofline compute run against this view.
func (p *Plan) WorkerModel(w int) *model.Model {
	s := p.Coords[w].PP
	out := &model.Model{Name: p.Model.Name}
	for _, layer := range p.Stages[s] {
		out.Layers = append(out.Layers, p.LayerShard(layer))
	}
	return out
}

// BoundaryBytes returns the per-sample activation volume crossing the
// stage boundary after stage s: the last layer's retained activations,
// split TP ways (each tensor-parallel rank forwards its slice).
func (p *Plan) BoundaryBytes(s int) int64 {
	layers := p.Stages[s]
	last := p.Model.Layers[layers[len(layers)-1]]
	return ceilDiv64(last.ActBytes, int64(p.TP))
}

// TPGroup returns worker w's tensor-parallel peers (itself included),
// ascending: the TP adjacent ranks sharing (dp, pp, ep).
func (p *Plan) TPGroup(w int) []int {
	base := w - p.Coords[w].TP
	out := make([]int, p.TP)
	for i := range out {
		out[i] = base + i
	}
	return out
}

// EPGroup returns worker w's expert-parallel peers (itself included),
// ascending: the EP ranks sharing (dp, pp, tp), striding by TP.
func (p *Plan) EPGroup(w int) []int {
	c := p.Coords[w]
	out := make([]int, p.EP)
	for ep := 0; ep < p.EP; ep++ {
		out[ep] = p.worker(c.DP, c.PP, c.TP, ep)
	}
	return out
}

// PPNext returns the worker holding the same (dp, tp, ep) slot in the
// next pipeline stage, or -1 at the last stage.
func (p *Plan) PPNext(w int) int {
	c := p.Coords[w]
	if c.PP == p.PP-1 {
		return -1
	}
	return w + p.TP*p.EP
}

// PPPrev returns the previous-stage peer, or -1 at stage 0.
func (p *Plan) PPPrev(w int) int {
	if p.Coords[w].PP == 0 {
		return -1
	}
	return w - p.TP*p.EP
}

// Label renders the effective layout ("dp32-pp4-tp1-ep1") — the string
// run records and the dashboard carry for non-trivial layouts.
func (p *Plan) Label() string {
	return fmt.Sprintf("dp%d-pp%d-tp%d-ep%d", p.DPEff, p.PP, p.TP, p.EP)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
