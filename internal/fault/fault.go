// Package fault is the fault-injection layer of the TECfan stack: a
// deterministic, seeded model of the sensor and actuator failures a
// production thermal controller must survive. The paper's §III models trust
// every measured T(k−1)/P(k−1) and assume every TEC switch, fan command,
// and DVFS request lands; this package breaks those assumptions on purpose
// so the fault-tolerant controller variant (internal/core's TECfan-FT) and
// the chaos harness (cmd/tecfan-chaos) can be exercised against:
//
//   - sensor faults — stuck-at-last readings, additive Gaussian noise,
//     dropout (NaN), and constant offset bias;
//   - actuator faults — TEC devices/banks failed off or stuck on, the fan
//     stuck at a level, DVFS requests dropped or clamped near maximum.
//
// A Scenario is a pure description; an Injector materializes it against a
// concrete platform Layout with a seeded RNG, so identical (scenario, seed,
// layout) triples corrupt identical runs identically. The adapter in sim.go
// plugs an Injector into the 16-core co-simulation's sensor and actuator
// seams (sim.SensorModel / sim.ActuatorModel).
package fault

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind enumerates the supported fault types.
type Kind int

const (
	// SensorStuck freezes a die temperature sensor at the value it reads
	// when the fault starts.
	SensorStuck Kind = iota
	// SensorNoise adds zero-mean Gaussian noise (σ = Param °C) to die
	// sensors.
	SensorNoise
	// SensorDropout makes die sensors read NaN.
	SensorDropout
	// SensorOffset adds a constant bias (Param °C, may be negative) to die
	// sensors. A negative bias under-reports heat — the dangerous case.
	SensorOffset
	// TECFailOff makes every TEC device of the target cores fail open:
	// drive commands are silently dropped and the devices stay off.
	TECFailOff
	// TECFailOn shorts the target cores' TEC drive transistors: the
	// devices run at full current regardless of commands.
	TECFailOn
	// FanStuck pins the fan at level Param (clamped to the level range;
	// large Param means slowest) regardless of requests.
	FanStuck
	// DVFSDrop silently discards every DVFS request; levels stay wherever
	// they were when the fault started.
	DVFSDrop
	// DVFSFloor clamps requested DVFS levels to at least max − Param:
	// a governor that refuses to throttle.
	DVFSFloor
)

// String returns the kind's report label.
func (k Kind) String() string {
	switch k {
	case SensorStuck:
		return "sensor-stuck"
	case SensorNoise:
		return "sensor-noise"
	case SensorDropout:
		return "sensor-dropout"
	case SensorOffset:
		return "sensor-offset"
	case TECFailOff:
		return "tec-fail-off"
	case TECFailOn:
		return "tec-fail-on"
	case FanStuck:
		return "fan-stuck"
	case DVFSDrop:
		return "dvfs-drop"
	case DVFSFloor:
		return "dvfs-floor"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one failure in a scenario.
type Fault struct {
	Kind Kind
	// Count is how many targets the fault hits: sensors for sensor kinds,
	// cores (whole TEC banks) for TEC kinds. 0 means one target, -1 means
	// all. Fan and DVFS kinds are chip-wide and ignore Count.
	Count int
	// StartFrac is the fault onset as a fraction of the run horizon
	// (0 = from the first step).
	StartFrac float64
	// Param is kind-specific: noise σ, offset bias (°C), fan level, or the
	// DVFSFloor distance below maximum.
	Param float64
}

// Scenario is a named, reusable set of faults.
type Scenario struct {
	Name   string
	Desc   string
	Faults []Fault
}

// Layout describes the platform an Injector materializes against.
type Layout struct {
	Sensors        int     // die temperature sensors (targets of sensor faults)
	Cores          int     // cores (targets of TEC bank faults)
	DevicesPerCore int     // TEC devices per core bank (0 = no TECs)
	FanLevels      int     // fan level count (level FanLevels−1 is slowest)
	MaxDVFS        int     // top DVFS level index
	Horizon        float64 // expected fault-free run time, s (scales StartFrac)
}

// active is one materialized fault: resolved targets and absolute onset.
type active struct {
	Fault
	start   float64
	sensors []int // resolved sensor indices (sensor kinds)
	cores   []int // resolved core indices (TEC kinds)
}

// Injector applies a materialized scenario. It is not safe for concurrent
// use; every run gets its own Injector (see NewInjector) so corruption
// stays deterministic.
type Injector struct {
	scenario Scenario
	layout   Layout
	seed     int64
	faults   []active

	rng    *rand.Rand
	draws  int64           // NormFloat64 calls since Reset, for state restore
	frozen map[int]float64 // stuck sensor → captured reading
}

// NewInjector materializes a scenario against a layout. Target selection
// draws from the seed, so the same (scenario, layout, seed) always afflicts
// the same sensors and cores.
func NewInjector(sc Scenario, layout Layout, seed int64) *Injector {
	in := &Injector{scenario: sc, layout: layout, seed: seed}
	pick := rand.New(rand.NewSource(seed))
	for _, f := range sc.Faults {
		a := active{Fault: f, start: f.StartFrac * layout.Horizon}
		switch f.Kind {
		case SensorStuck, SensorNoise, SensorDropout, SensorOffset:
			a.sensors = pickTargets(pick, layout.Sensors, f.Count)
		case TECFailOff, TECFailOn:
			a.cores = pickTargets(pick, layout.Cores, f.Count)
		}
		in.faults = append(in.faults, a)
	}
	in.Reset()
	return in
}

// pickTargets draws count distinct indices from [0, n); count 0 means one,
// -1 means all.
func pickTargets(rng *rand.Rand, n, count int) []int {
	if n == 0 {
		return nil
	}
	if count < 0 || count >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if count == 0 {
		count = 1
	}
	out := append([]int(nil), rng.Perm(n)[:count]...)
	sort.Ints(out)
	return out
}

// Reset clears per-run state (stuck-value memory, the noise stream) so
// warm-start iterations replay the same fault sequence.
func (in *Injector) Reset() {
	in.rng = rand.New(rand.NewSource(in.seed + 1))
	in.draws = 0
	in.frozen = map[int]float64{}
}

// normFloat64 draws from the noise stream, counting draws so a checkpointed
// run can re-seek the stream to the exact same position on restore.
func (in *Injector) normFloat64() float64 {
	in.draws++
	return in.rng.NormFloat64()
}

// Scenario returns the materialized scenario.
func (in *Injector) Scenario() Scenario { return in.scenario }

// EarliestStart returns the first fault onset time (s), or -1 with no
// faults — the reference point for detection-latency reporting.
func (in *Injector) EarliestStart() float64 {
	start := -1.0
	for _, a := range in.faults {
		if start < 0 || a.start < start {
			start = a.start
		}
	}
	return start
}

// CorruptTemps applies the active sensor faults to a temperature vector in
// place. Indices ≥ Layout.Sensors (non-die nodes) are never touched: the
// fault model covers the die sensor grid the controller reads.
func (in *Injector) CorruptTemps(now float64, temps []float64) {
	for _, a := range in.faults {
		if now < a.start {
			continue
		}
		for _, s := range a.sensors {
			if s >= len(temps) {
				continue
			}
			switch a.Kind {
			case SensorStuck:
				key := s
				v, ok := in.frozen[key]
				if !ok {
					v = temps[s]
					in.frozen[key] = v
				}
				temps[s] = v
			case SensorNoise:
				temps[s] += in.normFloat64() * a.Param
			case SensorDropout:
				temps[s] = math.NaN()
			case SensorOffset:
				temps[s] += a.Param
			}
		}
	}
}

// FilterTEC applies TEC actuator faults to per-device drive vectors in
// place; either slice may be nil. Device indices follow the core-major
// layout of tec.Array (core c owns [c·dpc, (c+1)·dpc)).
func (in *Injector) FilterTEC(now float64, on []bool, amps []float64, failCurrent float64) {
	dpc := in.layout.DevicesPerCore
	if dpc == 0 {
		return
	}
	for _, a := range in.faults {
		if now < a.start {
			continue
		}
		switch a.Kind {
		case TECFailOff, TECFailOn:
			for _, c := range a.cores {
				for l := c * dpc; l < (c+1)*dpc; l++ {
					if on != nil && l < len(on) {
						on[l] = a.Kind == TECFailOn
					}
					if amps != nil && l < len(amps) {
						if a.Kind == TECFailOn {
							amps[l] = failCurrent
						} else {
							amps[l] = 0
						}
					}
				}
			}
		}
	}
}

// TECFaultActive reports whether a TEC fault is live at time now — used by
// adapters to decide whether a nil (unchanged) TEC request must be
// materialized so a persistent fault can overwrite the held state.
func (in *Injector) TECFaultActive(now float64) bool {
	for _, a := range in.faults {
		if now >= a.start && (a.Kind == TECFailOff || a.Kind == TECFailOn) {
			return true
		}
	}
	return false
}

// FilterDVFS applies DVFS faults to a requested level vector, returning the
// (possibly nil) vector to apply. nil means the request is dropped and the
// current levels hold.
func (in *Injector) FilterDVFS(now float64, req []int) []int {
	for _, a := range in.faults {
		if now < a.start {
			continue
		}
		switch a.Kind {
		case DVFSDrop:
			return nil
		case DVFSFloor:
			if req == nil {
				continue
			}
			floor := in.layout.MaxDVFS - int(a.Param)
			if floor < 0 {
				floor = 0
			}
			for i, l := range req {
				if l < floor {
					req[i] = floor
				}
			}
		}
	}
	return req
}

// FilterFan maps a requested fan level to the applied one.
func (in *Injector) FilterFan(now float64, level int) int {
	for _, a := range in.faults {
		if now < a.start {
			continue
		}
		if a.Kind == FanStuck {
			stuck := int(a.Param)
			if stuck >= in.layout.FanLevels {
				stuck = in.layout.FanLevels - 1
			}
			if stuck < 0 {
				stuck = 0
			}
			return stuck
		}
	}
	return level
}

// Describe returns one human-readable line per materialized fault.
func (in *Injector) Describe() []string {
	var out []string
	for _, a := range in.faults {
		line := fmt.Sprintf("%s from t=%.3gs", a.Kind, a.start)
		switch a.Kind {
		case SensorStuck, SensorNoise, SensorDropout, SensorOffset:
			line += fmt.Sprintf(" on sensors %v", a.sensors)
		case TECFailOff, TECFailOn:
			line += fmt.Sprintf(" on cores %v", a.cores)
		}
		if a.Param != 0 {
			line += fmt.Sprintf(" (param %g)", a.Param)
		}
		out = append(out, line)
	}
	return out
}

// injectorState is the serialized per-run state of an Injector: the noise
// stream position (as a draw count to replay from the seed) and the captured
// stuck-sensor readings. The materialized scenario itself is configuration,
// reproduced by constructing the Injector identically.
type injectorState struct {
	Draws  int64
	Frozen map[int]float64
}

// MarshalState captures the injector's per-run state (sim.StateCodec form;
// the sim adapter delegates here).
func (in *Injector) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(injectorState{Draws: in.draws, Frozen: in.frozen})
	if err != nil {
		return nil, fmt.Errorf("fault: encoding injector state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores a state captured by MarshalState: the RNG is
// re-seeded and wound forward by the recorded draw count, so the continued
// noise stream is bit-for-bit the one the interrupted run would have drawn.
func (in *Injector) UnmarshalState(data []byte) error {
	var st injectorState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("fault: decoding injector state: %w", err)
	}
	if st.Draws < 0 {
		return fmt.Errorf("fault: negative draw count %d", st.Draws)
	}
	in.Reset()
	for i := int64(0); i < st.Draws; i++ {
		in.rng.NormFloat64()
	}
	in.draws = st.Draws
	if st.Frozen != nil {
		in.frozen = st.Frozen
	}
	return nil
}
