// Sweep: map the fan-level / policy design space for one workload. For
// every policy and every fan speed level, run the benchmark and print the
// violation ratio, power, and delay — the raw data behind the §IV-C
// "lowest non-violating fan speed" selection rule.
package main

import (
	"context"
	"fmt"
	"log"

	"tecfan/internal/exp"
	"tecfan/internal/power"
	"tecfan/internal/workload"
)

func main() {
	env := exp.NewEnv()
	env.Scale = 0.15 // keep each run fast

	b, err := workload.ByName("cholesky", 16, power.DefaultLeakage())
	if err != nil {
		log.Fatal(err)
	}
	sb := env.Scaled(b)

	ctx := context.Background()
	base, err := env.BaseScenarioContext(ctx, sb)
	if err != nil {
		log.Fatal(err)
	}
	th := base.Metrics.PeakTemp
	fmt.Printf("cholesky/16, T_th = %.2f °C (base peak)\n\n", th)
	fmt.Printf("%-9s", "policy")
	for l := 0; l < env.Fan.NumLevels(); l++ {
		fmt.Printf("  %14s", fmt.Sprintf("fan L%d (%.1fW)", l+1, env.Fan.Power(l)))
	}
	fmt.Println()

	for _, name := range exp.PolicyOrder {
		fmt.Printf("%-9s", name)
		for l := 0; l < env.Fan.NumLevels(); l++ {
			ctl, err := env.Controller(name)
			if err != nil {
				log.Fatal(err)
			}
			res, err := env.RunTracedContext(ctx, sb, ctl, th, l)
			if err != nil {
				log.Fatal(err)
			}
			mark := " "
			if res.Metrics.ViolationRatio > env.ViolationBudget {
				mark = "*"
			}
			fmt.Printf("  %6.1fW/%5.1f%%%s", res.Metrics.AvgPower,
				100*res.Metrics.ViolationRatio, mark)
		}
		fmt.Println()
	}
	fmt.Println("\n(* = violation ratio above the selection budget; the driver picks")
	fmt.Println(" the right-most unstarred column per policy — §IV-C's procedure.)")
}
