// fft2d reproduces one cell of the paper's Table 1.0 interactively: the
// Parallel 2D FFT benchmark, hand-coded vs SAGE auto-generated, on a chosen
// platform, size and node count.
//
//	go run ./examples/fft2d
//	go run ./examples/fft2d -n 1024 -nodes 8 -platform CSPI
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/platforms"
)

func main() {
	n := flag.Int("n", 512, "matrix edge (power of two)")
	nodes := flag.Int("nodes", 8, "processor count")
	platformName := flag.String("platform", "CSPI", "target platform")
	flag.Parse()

	pl, err := platforms.ByName(*platformName)
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := experiments.RunTable1(experiments.Table1Config{
		Platform: pl,
		Sizes:    []int{*n},
		Nodes:    []int{*nodes},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tbl.Format())
	fmt.Println("\nThe paper reports SAGE auto-generated code running at roughly")
	fmt.Println("77.5-86% of hand-coded performance on the CSPI target; the 2D FFT")
	fmt.Println("row above should fall in that band.")
}
