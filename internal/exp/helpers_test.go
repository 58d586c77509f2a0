package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"tecfan/internal/workload"
)

// testBenchmarks returns the scaled Table I set for test helpers.
func testBenchmarks(e *Env) []*workload.Benchmark {
	var out []*workload.Benchmark
	for _, b := range workload.Table1(e.Leak) {
		out = append(out, e.Scaled(b))
	}
	return out
}

// driverDigests pins the SHA-256 of each driver's rendered output at the
// scale its test runs: a refactor of the experiment plumbing must leave
// every byte unchanged. The digests hold for amd64 only — arm64 fuses
// multiply-adds, which moves the last bits of the floats.
var driverDigests = map[string]string{
	"table1":             "769a6398a9e480a5f48fabc568a1000e35f51c06d1f78857b02b418cc6309cc6",
	"fig4":               "0a3dfed444a0c9bbd7f62e2fc15830564c514c30ca1182260827332446cb7f8f",
	"fig56":              "6bac39e5d565c2b0f45a544435f61f1a84be59b85bf0b65876bb8a686ed1e235",
	"knob-ablation":      "a42b21483931402d64c1635d890fd7b52d7539180776fa4d03a5e3393a77f88a",
	"period-ablation":    "6a011223c4615d99fa36f0aec8efe9d5834b29cec7a3db3b5f36cdf527461944",
	"current-ablation":   "8973aab5e3425baf8e07f21432461e55c2656652b04277d0b257983a57a5600b",
	"placement-ablation": "d5aa44eb23ddfb9496adf579a6e2507270d7cf1b5f08abb0bb1c8067f34e494e",
	"mapping":            "a4dc89ab15d86061ee141ffdca42cd2d5606afd7a227213031942457163caeca",
	"mix":                "a78312b933f399bdcfd5ee148f649e190e45d37221422cb1544d804bf3149cc7",
	"timescales":         "9ea850e7e9ae15bf670e605eec3774c01384c83e246f9c248b690508837b2d52",
	"scaling":            "378001268714351801a09c1b9254f32f70c09a0ee696bb9516d65b96306b8946",
	"chaos":              "d751c608adebbc717827af7d2b7f30c64650b9d852ebf0f735edc619ce241f26",
}

// checkDigest compares the SHA-256 of out with the pinned digest for name.
func checkDigest(t *testing.T, name string, out []byte) {
	t.Helper()
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if runtime.GOARCH != "amd64" {
		t.Logf("%s digest %s not checked: digests are pinned for amd64, this is %s", name, got, runtime.GOARCH)
		return
	}
	want, ok := driverDigests[name]
	if !ok {
		t.Errorf("%s: no pinned digest (got %s)", name, got)
		return
	}
	if got != want {
		t.Errorf("%s output digest %s, want %s; rendered output:\n%s", name, got, want, out)
	}
}
