package config

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"coarse/internal/core"
	"coarse/internal/model"
	"coarse/internal/paramserver"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// machines maps each preset name (paper Table I plus the NVLink mesh)
// to its constructor; Machine gives multi its node count.
var machines = map[string]func() topology.Spec{
	"multi":       func() topology.Spec { return topology.MultiNodeV100(2) },
	"sdsc":        topology.SDSCP100,
	"t4":          topology.AWST4,
	"v100":        topology.AWSV100,
	"v100-2to1":   topology.AWSV100TwoToOne,
	"v100-nvlink": topology.AWSV100NVLink,
}

// models maps each zoo name to its constructor; Model also builds any
// MLP spelled mlp:IN,HIDDEN...,OUT.
var models = map[string]func() *model.Model{
	"bert-base":  model.BERTBase,
	"bert-large": model.BERTLarge,
	"mlp":        func() *model.Model { return model.MLP("mlp", 1024, 512, 256, 10) },
	"resnet50":   model.ResNet50,
	"vgg16":      model.VGG16,
}

// strategies lists the four synchronization strategies of the
// evaluation in the figures' order.
var strategies = []struct {
	name  string
	build func() train.Strategy
}{
	{"CentralPS", func() train.Strategy { return paramserver.NewCentralPS() }},
	{"DENSE", func() train.Strategy { return paramserver.NewDENSE() }},
	{"AllReduce", func() train.Strategy { return train.NewAllReduce() }},
	{"COARSE", func() train.Strategy { return core.New(core.DefaultOptions()) }},
}

// maxNodes bounds multi's node count: 128 eight-GPU nodes are 1,024
// workers, the size of the scale family's 1024-worker cell. Far larger
// counts exhaust host memory while the machine is built.
const maxNodes = 128

// maxParamElems bounds an MLP's parameter count so that every byte
// count derived from it fits an int: the largest, AllReduce's four
// float32 copies plus its bucket, stays under math.MaxInt/4. It also
// bounds the activations, since a layer's (in+1)*out parameters are at
// least its in+out activations.
const maxParamElems = math.MaxInt / 64

// Machine returns the named machine preset. nodes is multi's node
// count: 2 to maxNodes, or 0 for 2. Every other preset is one node and
// takes only 0.
func Machine(name string, nodes int) (topology.Spec, error) {
	build, ok := machines[name]
	switch {
	case !ok:
		return topology.Spec{}, unknown("machine", name, MachineNames())
	case nodes != 0 && name != "multi":
		return topology.Spec{}, fmt.Errorf("config: nodes %d: only the multi preset takes a node count", nodes)
	case nodes < 0 || nodes == 1:
		return topology.Spec{}, fmt.Errorf("config: nodes %d: multi needs at least 2", nodes)
	case nodes > maxNodes:
		return topology.Spec{}, fmt.Errorf("config: nodes %d: multi takes at most %d", nodes, maxNodes)
	case nodes > 2:
		return topology.MultiNodeV100(nodes), nil
	}
	return build(), nil
}

// Model returns a fresh instance of the named model: a zoo name, or
// mlp:IN,HIDDEN...,OUT for an MLP of those layer widths.
func Model(name string) (*model.Model, error) {
	if build, ok := models[name]; ok {
		return build(), nil
	}
	widths, ok := strings.CutPrefix(name, "mlp:")
	if !ok {
		return nil, unknown("model", name, append(ModelNames(), "mlp:IN,HIDDEN...,OUT"))
	}
	var sizes []int
	for _, p := range strings.Split(widths, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("config: bad mlp sizes in %q", name)
		}
		sizes = append(sizes, v)
	}
	if len(sizes) < 2 {
		return nil, fmt.Errorf("config: mlp needs >=2 sizes in %q", name)
	}
	// Layer i holds (sizes[i]+1)*sizes[i+1] parameters (weights and
	// biases); the running total must stay within maxParamElems.
	total := 0
	for i, out := range sizes[1:] {
		if sizes[i] > (maxParamElems-total)/out-1 {
			return nil, fmt.Errorf("config: mlp %q has too many parameters", name)
		}
		total += (sizes[i] + 1) * out
	}
	return model.MLP("mlp", sizes...), nil
}

// Strategy returns a fresh instance of the named synchronization
// strategy with its default options.
func Strategy(name string) (train.Strategy, error) {
	for _, s := range strategies {
		if s.name == name {
			return s.build(), nil
		}
	}
	names := Strategies()
	sort.Strings(names)
	return nil, unknown("strategy", name, names)
}

// Strategies returns every strategy name in the figures' order.
func Strategies() []string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return names
}

// MachineNames returns the machine preset names, sorted.
func MachineNames() []string { return sortedKeys(machines) }

// ModelNames returns the zoo model names, sorted.
func ModelNames() []string { return sortedKeys(models) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func unknown(kind, name string, have []string) error {
	return fmt.Errorf("config: unknown %s %q (have %s)", kind, name, strings.Join(have, ", "))
}
