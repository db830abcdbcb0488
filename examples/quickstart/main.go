// Quickstart: time BERT-Base training through COARSE and AllReduce.
//
// This example simulates data-parallel BERT-Base training on the AWS
// V100 machine (four worker GPUs, two CCI memory devices) with COARSE
// and with NCCL-style ring AllReduce, and compares their iteration
// time, blocked communication time and throughput.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	coarse "coarse"
)

func main() {
	machine, m := coarse.AWSV100(), coarse.BERTBase()
	const batch, iterations = 2, 4
	fmt.Printf("training %s (batch %d per GPU, %d iterations) on %s...\n\n",
		m.Name, batch, iterations, machine.Label)

	var iters []float64
	for _, s := range []coarse.Strategy{coarse.StrategyAllReduce, coarse.StrategyCOARSE} {
		res, err := coarse.Train(machine, m, batch, iterations, s)
		if err != nil {
			log.Fatal(err)
		}
		iters = append(iters, res.IterTime.ToSeconds())
		fmt.Println(s)
		fmt.Printf("  iteration:   %v (compute %v, blocked comm %v)\n",
			res.IterTime, res.ComputeTime, res.BlockedComm)
		fmt.Printf("  GPU util:    %.1f%%\n", 100*res.GPUUtil)
		fmt.Printf("  throughput:  %.0f samples/s across %d workers\n\n",
			res.Throughput(), res.Workers)
	}
	fmt.Printf("COARSE speedup over AllReduce: %.2fx\n", iters[0]/iters[1])
}
