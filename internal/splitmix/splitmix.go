// Package splitmix holds the repo's one SplitMix64 finalizer (Steele, Lea
// and Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014).
// Every seeded draw that must replay bit for bit goes through it: campaign
// seed derivation, numfault and clockfault fire decisions, workload jitter
// and the Fig. 7 utilization traces. It is a leaf: it imports nothing, so
// any package can use it.
package splitmix

// Mix is SplitMix64's output step applied to x advanced by the golden-ratio
// increment: good avalanche, no state. Small enough to inline at every call
// site.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
