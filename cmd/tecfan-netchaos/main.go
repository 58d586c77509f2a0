// Command tecfan-netchaos is the standalone network chaos proxy: it sits
// between a client and the tecfand daemon and impairs traffic per a seeded
// fault schedule, so control-plane resilience can be tested against a real
// daemon process (tecfan-crucible puts it in front of the daemon whenever a
// campaign spec has a net schedule).
//
// Faults come from a JSON schedule file (see internal/netfault.Schedule):
//
//	tecfan-netchaos -listen 127.0.0.1:9023 -target 127.0.0.1:8023 \
//	    -schedule faults.json
//
// A schedule holds the seed of its probabilistic draws, a base fault
// (latency, jitter, drop, reset, bandwidth), windows relative to proxy start
// that override it or partition the link outright, and an optional repeat
// period. Without -schedule the proxy forwards unimpaired. SIGINT/SIGTERM
// closes the listener and resets live connections.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"tecfan/internal/cmdutil"
	"tecfan/internal/netfault"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9023", "address the proxy listens on")
	target := flag.String("target", "127.0.0.1:8023", "upstream daemon address")
	schedFile := flag.String("schedule", "", "JSON fault schedule file (empty = forward unimpaired)")
	flag.Parse()

	for _, err := range []error{
		cmdutil.CheckAddr("listen", *listen),
		cmdutil.CheckAddr("target", *target),
	} {
		if err != nil {
			fatal(err)
		}
	}

	var sched netfault.Schedule
	if *schedFile != "" {
		var err error
		sched, err = netfault.ParseScheduleFile(*schedFile)
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	proxy, err := netfault.New(*listen, *target, sched, log.Printf)
	if err != nil {
		fatal(err)
	}
	log.Printf("tecfan-netchaos: %s -> %s (seed %d)", proxy.Addr(), *target, sched.Seed)

	<-ctx.Done()
	log.Printf("tecfan-netchaos: shutting down (live connections reset)")
	if err := proxy.Close(); err != nil {
		log.Printf("tecfan-netchaos: close: %v", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tecfan-netchaos:", err)
	os.Exit(1)
}
