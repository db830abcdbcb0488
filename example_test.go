package coarse_test

import (
	"fmt"
	"strings"

	coarse "coarse"
)

// Train simulates data-parallel training of a model on a Table I
// machine preset under a synchronization strategy.
func ExampleTrain() {
	res, err := coarse.Train(coarse.SDSCP100(), coarse.MLP("demo", 64, 32, 8), 4, 2, coarse.StrategyCOARSE)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Strategy, "workers:", res.Workers, "batch:", res.Batch)
	// Output: COARSE workers: 2 batch: 4
}

// Profile runs the offline probe profiler and exposes each worker's
// routing table; on the AWS V100 machine the bandwidth-best proxy is a
// remote one (anti-locality).
func ExampleProfile() {
	tables := coarse.Profile(coarse.AWSV100())
	fmt.Println("workers:", len(tables))
	fmt.Println("worker 0 non-uniform:", tables[0].NonUniform())
	fmt.Println("small tensors to proxy:", tables[0].Route(1024) == tables[0].LatProxy)
	// Output:
	// workers: 4
	// worker 0 non-uniform: true
	// small tensors to proxy: true
}

// RunExperiment regenerates one of the paper's figures as text tables.
func ExampleRunExperiment() {
	out, err := coarse.RunExperiment("fig14", true)
	if err != nil {
		panic(err)
	}
	first := strings.SplitN(out[0], "\n", 2)[0]
	fmt.Println(first)
	fmt.Println("saturates at 2MiB:", strings.Contains(out[0], "saturation (90%)  2MiB"))
	// Output:
	// == Figure 14: DMA bandwidth vs access size ==
	// saturates at 2MiB: true
}

// NewSession exposes the paper's push/pull parameter-server interface:
// each worker pushes its gradient, COARSE synchronizes on the memory
// devices, and pulls return the average.
func ExampleNewSession() {
	s, err := coarse.NewSession(coarse.AWSV100())
	if err != nil {
		panic(err)
	}
	for i, c := range s.Clients() {
		g := &coarse.Tensor{Name: "grad", Data: make([]float32, 4)}
		for j := range g.Data {
			g.Data[j] = float32(i + 1) // contributions 1,2,3,4
		}
		if err := c.Push(g); err != nil {
			panic(err)
		}
	}
	var got *coarse.Tensor
	s.Clients()[0].Pull("grad", func(t *coarse.Tensor) { got = t })
	s.Drain()
	fmt.Println("synchronized value:", got.Data[0])
	// Output: synchronized value: 2.5
}
