// Package fpga models the hardware substrate of the paper's evaluation: the
// Xilinx devices ReSim was implemented on, the throughput relation between
// minor-cycle clock and simulation MIPS, and a per-stage area estimator
// calibrated against Table 4.
//
// This model substitutes for the real FPGA implementation:
// ReSim's simulated-processor timing is defined at major-cycle granularity,
// so the hardware only determines (a) wall-clock throughput, MIPS =
// f_minor / K × IPC, and (b) resource cost. Both are modeled here and
// validated against the published numbers.
package fpga

import (
	"fmt"
	"math"
)

// Device describes an FPGA device as the paper uses it: the minor-cycle
// frequency ReSim achieved on it and its resource capacity. Area estimates
// in this package are calibrated in Virtex-4 slices (Table 4's units);
// V4SliceFactor converts a device's own slice count into V4-equivalent
// capacity (a Virtex-5 slice holds four 6-input LUTs versus the Virtex-4
// slice's two 4-input LUTs).
type Device struct {
	Name          string
	Family        string
	MinorClockMHz float64 // achieved minor-cycle clock (84 V4 / 105 V5, §V.C)
	Slices        int
	V4SliceFactor float64 // V4-equivalent capacity per native slice
	BRAMs         int
}

// V4Capacity returns the device capacity in Virtex-4-equivalent slices.
func (d Device) V4Capacity() int {
	f := d.V4SliceFactor
	if f == 0 {
		f = 1
	}
	return int(float64(d.Slices) * f)
}

// The devices of the evaluation (§V.C) plus the Virtex-II Pro used by
// A-Ports for context.
var (
	Virtex4 = Device{Name: "xc4vlx40", Family: "Virtex-4", MinorClockMHz: 84,
		Slices: 18432, V4SliceFactor: 1, BRAMs: 96}
	Virtex5 = Device{Name: "xc5vlx50t", Family: "Virtex-5", MinorClockMHz: 105,
		Slices: 7200, V4SliceFactor: 2.2, BRAMs: 60}
	Virtex2Pro = Device{Name: "xc2vp30", Family: "Virtex-II Pro", MinorClockMHz: 50,
		Slices: 13696, V4SliceFactor: 1, BRAMs: 136}
)

// SimulationMIPS converts a simulated IPC into wall-clock simulation
// throughput on dev for an engine whose major cycle takes k minor cycles:
// the device completes MinorClockMHz/k million major cycles per second, each
// retiring IPC instructions on average.
func SimulationMIPS(dev Device, k int, ipc float64) float64 {
	if k <= 0 {
		return 0
	}
	return dev.MinorClockMHz / float64(k) * ipc
}

// TraceBandwidthMBps returns the input trace bandwidth (MByte/s) required to
// sustain mips million instructions per second at bitsPerInstr average
// record size (Table 3's last column).
func TraceBandwidthMBps(mips, bitsPerInstr float64) float64 {
	return mips * bitsPerInstr / 8
}

// TraceBandwidthGbps returns the trace bandwidth in Gbit/s (the paper notes
// the 4-wide configuration needs ~1.1 Gb/s, exceeding gigabit Ethernet).
func TraceBandwidthGbps(mips, bitsPerInstr float64) float64 {
	return mips * bitsPerInstr / 1000
}

// ParallelFetchFactors models the §IV measurement that motivated ReSim's
// serial execution model: a w-wide parallel fetch unit costs about w× the
// area of the serial unit and runs slower ("besides the four-fold increase
// in cost, the unit was also 22% slower" at w=4). The frequency penalty is
// interpolated log-linearly: 0% at w=1, 22% at w=4.
func ParallelFetchFactors(w int) (areaFactor, freqFactor float64) {
	if w < 1 {
		return 0, 0
	}
	areaFactor = float64(w)
	freqFactor = 1 - 0.22*math.Log2(float64(w))/2
	if freqFactor < 0 {
		freqFactor = 0
	}
	return areaFactor, freqFactor
}

// ParallelMinorClockMHz returns the minor-cycle clock dev would achieve with
// a w-wide parallel datapath instead of ReSim's serial one.
func ParallelMinorClockMHz(dev Device, w int) float64 {
	_, f := ParallelFetchFactors(w)
	return dev.MinorClockMHz * f
}

// String formats the device for reports.
func (d Device) String() string {
	return fmt.Sprintf("%s (%s, %d slices, %d BRAMs, %.0f MHz minor clock)",
		d.Name, d.Family, d.Slices, d.BRAMs, d.MinorClockMHz)
}
