// Knobs: exercise the paper's discussed controller variants side by side on
// one benchmark — stock TECfan (per-core DVFS, on/off TECs), the chip-level
// DVFS integration of §III-E, and the graded TEC current control of §III —
// plus the coordination ablation (removing one knob at a time).
package main

import (
	"fmt"
	"log"
	"os"

	"tecfan"
)

func main() {
	sys, err := tecfan.New(tecfan.WithScale(0.25))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Controller-variant ablation on cholesky/16 (normalized to base):")
	rows, _, err := sys.Ablations("cholesky", nil)
	if err != nil {
		log.Fatal(err)
	}
	tecfan.WriteAblation(os.Stdout, "", rows)

	fmt.Println("\nTEC drive-current sweep (why the paper drives at a conservative 6 A):")
	crows, err := sys.CurrentAblation([]float64{2, 4, 6, 8})
	if err != nil {
		log.Fatal(err)
	}
	tecfan.WriteCurrentAblation(os.Stdout, crows)

	fmt.Println("\nTakeaways:")
	fmt.Println(" * chip-level DVFS stays close to per-core — §III-E's 'integrates")
	fmt.Println("   seamlessly' claim — at a fraction of the voltage-regulator cost;")
	fmt.Println(" * graded current control refines, but on/off transistors capture")
	fmt.Println("   nearly all of the benefit, which is why the paper chose them;")
	fmt.Println(" * past ~6 A the I²R Joule heating eats the extra Peltier pumping.")
}
