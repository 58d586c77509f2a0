package main

// metricDef names one reported metric. The lists below are what the harness
// emits; BENCHMARK.json must list exactly the same names, units and
// directions (TestBenchmarkSpecMatchesHarness holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are what a user waits for or pays, measured with tracing off.
// Every one applies to every workload and is never zero.
var endToEnd = []metricDef{
	// Cold start of one pass until work can be issued: the environment
	// built, or the daemon (and its workers) answering /readyz 200.
	{"setup_s", "s", "lower"},
	// Host time of one pass's work; for the serving workloads the makespan
	// from the first submit to the last result fetched.
	{"wall_s", "s", "lower"},
	// Time from issuing one user-visible request to holding its checked
	// result: a daemon job (submit to result fetched), or one facade call
	// including its cold set-up (a CLI invocation).
	{"job_p50_s", "s", "lower"},
	// runtime.MemStats.TotalAlloc growth over one pass, set-up included.
	{"alloc_mb", "MB", "lower"},
}

// rates are printed and written beside endToEnd but are not in
// BENCHMARK.json: each applies to only some workloads, and with fixed work
// per pass each is a reciprocal of wall_s. sim_speed applies to the
// workloads whose traced pass drives sim runs, jobs_per_s to passes of many
// jobs.
var rates = []metricDef{
	{"sim_speed", "sim-s/host-s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
}

// perLayer are measured in the traced passes. The *_s share metrics without
// a percentile suffix partition the traced pass: they sum to trace.wall_s
// exactly.
var perLayer = []metricDef{
	{"trace.wall_s", "s", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"host.ref_ms", "ms", "lower"},

	{"exp.other_s", "s", "lower"},
	{"exp.sim_runs", "count", "lower"},
	{"sim.setup_s", "s", "lower"},
	{"sim.other_s", "s", "lower"},
	{"sim.steps", "count", "lower"},
	{"sim.warm_starts", "count", "lower"},
	{"core.control_s", "s", "lower"},
	{"core.control_calls", "count", "lower"},
	{"core.control_us_p50", "us", "lower"},
	{"core.control_us_p99", "us", "lower"},
	{"core.fan_control_s", "s", "lower"},
	{"policy.control_s", "s", "lower"},
	{"thermal.integrate_s", "s", "lower"},
	{"thermal.integrate_ns", "ns", "lower"},
	{"numguard.refinements", "count", "lower"},

	{"server.decide_s", "s", "lower"},
	{"server.oracle_decide_s", "s", "lower"},
	{"server.decide_calls", "count", "lower"},
	{"server.other_s", "s", "lower"},

	{"client.wire_s", "s", "lower"},
	{"client.submit_ms_p50", "ms", "lower"},
	{"client.poll_ms_p50", "ms", "lower"},
	{"client.result_ms_p50", "ms", "lower"},
	{"client.retries", "count", "lower"},
	{"daemon.handler_s", "s", "lower"},
	{"daemon.handler_ms_p50", "ms", "lower"},
	{"daemon.other_s", "s", "lower"},
	{"daemon.queue_wait_s_p50", "s", "lower"},
	{"daemon.exec_s_p50", "s", "lower"},
	{"daemon.job_p90_s", "s", "lower"},
	{"checkpoint.write_s", "s", "lower"},
	{"checkpoint.fsync_s", "s", "lower"},
	{"checkpoint.rename_s", "s", "lower"},
	{"checkpoint.fsyncs", "count", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},

	{"pool.claims", "count", "lower"},
	{"pool.claim_hit_ratio", "ratio", "higher"},
	{"pool.claim_ms_p50", "ms", "lower"},
	{"pool.upload_ms_p50", "ms", "lower"},
	{"pool.complete_ms_p50", "ms", "lower"},
	{"pool.merge_s", "s", "lower"},
	{"worker.shard_s", "s", "lower"},
	{"worker.shard_s_p50", "s", "lower"},
	{"worker.utilization", "ratio", "higher"},
}

// shareLayers maps each layer the attribution produces to its share metric.
var shareLayers = map[string]string{
	"exp":               "exp.other_s",
	"sim":               "sim.other_s",
	"sim.setup":         "sim.setup_s",
	"core.control":      "core.control_s",
	"core.fan_control":  "core.fan_control_s",
	"policy.control":    "policy.control_s",
	"thermal.integrate": "thermal.integrate_s",
	"server":            "server.other_s",
	"server.decide":     "server.decide_s",
	"client":            "client.wire_s",
	"daemon.handler":    "daemon.handler_s",
	"daemon":            "daemon.other_s",
	"checkpoint.write":  "checkpoint.write_s",
	"checkpoint.fsync":  "checkpoint.fsync_s",
	"checkpoint.rename": "checkpoint.rename_s",
	"worker":            "worker.shard_s",
}

// exactCounts must repeat exactly between traced passes of one workload,
// and between runs of the same code: they count work, not time.
var exactCounts = []string{"sim.steps", "core.control_calls", "exp.sim_runs", "numguard.refinements", "server.decide_calls"}

// layerRow records, before anything is measured, which end-to-end metric a
// layer metric should move and on which workload, and where it should stay
// flat. A change that claims a gain in a layer must show it there.
type layerRow struct {
	Layers []string
	Moves  []string // "metric@workload"
	Flat   []string // workloads
}

var layerRows = []layerRow{
	{[]string{"core.control_s", "core.control_calls", "core.control_us_p50", "core.control_us_p99", "core.fan_control_s"},
		[]string{"wall_s@fig56", "job_p50_s@daemon-trace"}, []string{"table1"}},
	{[]string{"policy.control_s"}, []string{"wall_s@fig56"}, []string{"table1"}},
	{[]string{"thermal.integrate_s", "thermal.integrate_ns"}, []string{"wall_s@table1"}, []string{"fig7"}},
	{[]string{"sim.setup_s", "sim.other_s", "sim.steps", "sim.warm_starts"}, []string{"wall_s@table1"}, []string{"fig7"}},
	{[]string{"exp.sim_runs", "exp.other_s"}, []string{"wall_s@fig56"}, nil},
	{[]string{"numguard.refinements"}, nil, nil},
	{[]string{"server.decide_s", "server.oracle_decide_s", "server.decide_calls", "server.other_s"},
		[]string{"wall_s@fig7"}, []string{"fig56", "table1", "daemon-trace", "pool-fig4"}},
	{[]string{"client.wire_s", "client.submit_ms_p50", "client.poll_ms_p50", "client.result_ms_p50", "client.retries", "daemon.handler_s", "daemon.handler_ms_p50"},
		[]string{"job_p50_s@daemon-trace"}, []string{"fig56", "table1", "fig7"}},
	{[]string{"daemon.other_s", "daemon.queue_wait_s_p50", "daemon.exec_s_p50", "daemon.job_p90_s"},
		[]string{"job_p50_s@daemon-trace", "wall_s@daemon-trace"}, nil},
	{[]string{"checkpoint.write_s", "checkpoint.fsync_s", "checkpoint.rename_s", "checkpoint.fsyncs", "checkpoint.bytes"},
		[]string{"job_p50_s@daemon-trace", "wall_s@pool-fig4"}, []string{"fig56", "table1", "fig7"}},
	{[]string{"pool.claims", "pool.claim_hit_ratio", "pool.claim_ms_p50", "pool.upload_ms_p50", "pool.complete_ms_p50", "pool.merge_s", "worker.shard_s", "worker.shard_s_p50", "worker.utilization"},
		[]string{"wall_s@pool-fig4"}, []string{"daemon-trace"}},
	{[]string{"trace.wall_s", "trace.overhead", "host.ref_ms"}, nil, nil},
}
