// Package platforms holds the calibrated hardware descriptors for the four
// COTS multicomputer vendors the paper's evaluation references (CSPI, Mercury,
// SKY and SIGI, per the MITRE cross-vendor study it cites), plus a plain
// workstation-cluster descriptor used by examples.
//
// The CSPI numbers follow §3.2 of the paper directly: 200 MHz PowerPC 603e
// nodes, two quad-processor boards in a VME chassis, and a 160 MB/s Myrinet
// fabric. The other vendors are calibrated to their published interconnect
// characteristics (Mercury RACEway ~267 MB/s links, SKY SKYchannel ~320 MB/s
// shared backplane, SIGI a lower-bandwidth VME-based design) so that the
// *relative* cross-vendor behaviour — who wins the communication-bound corner
// turn, who wins the compute-bound FFT — reproduces the shape of the MITRE
// measurements. Absolute times are simulated, not measured.
package platforms

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/machine"
)

// CSPI is the paper's experimental target (§3.2): 200 MHz PPC 603e, quad-CPU
// boards, 160 MB/s Myrinet, VxWorks messaging stack.
func CSPI() machine.Platform {
	return machine.Platform{
		Name:              "CSPI",
		NodesPerBoard:     4,
		ClockHz:           200e6,
		FlopsPerCycle:     0.30, // ~60 MFLOPS sustained on tuned FFT kernels
		MemCopyBW:         180e6,
		SendOverhead:      8 * time.Microsecond,
		RecvOverhead:      8 * time.Microsecond,
		IntraLatency:      5 * time.Microsecond,
		IntraBW:           240e6,
		InterLatency:      15 * time.Microsecond,
		InterBW:           160e6, // Myrinet fabric, §3.2
		FabricConcurrency: 8,     // switched fabric, near-crossbar
		AllToAll:          "pairwise",
	}
}

// Mercury models a Mercury RACE system: RACEway crossbar with ~267 MB/s
// links and a low-overhead messaging stack.
func Mercury() machine.Platform {
	return machine.Platform{
		Name:              "Mercury",
		NodesPerBoard:     4,
		ClockHz:           200e6,
		FlopsPerCycle:     0.34,
		MemCopyBW:         230e6,
		SendOverhead:      6 * time.Microsecond,
		RecvOverhead:      6 * time.Microsecond,
		IntraLatency:      3 * time.Microsecond,
		IntraBW:           267e6,
		InterLatency:      8 * time.Microsecond,
		InterBW:           267e6,
		FabricConcurrency: 0, // crossbar: unlimited concurrent transfers
		AllToAll:          "direct",
	}
}

// SKY models a SKY Computers system: fast but shared SKYchannel backplane.
func SKY() machine.Platform {
	return machine.Platform{
		Name:              "SKY",
		NodesPerBoard:     4,
		ClockHz:           200e6,
		FlopsPerCycle:     0.30,
		MemCopyBW:         200e6,
		SendOverhead:      10 * time.Microsecond,
		RecvOverhead:      10 * time.Microsecond,
		IntraLatency:      4 * time.Microsecond,
		IntraBW:           250e6,
		InterLatency:      12 * time.Microsecond,
		InterBW:           320e6,
		FabricConcurrency: 4, // shared backplane limits concurrency
		AllToAll:          "bruck",
	}
}

// SIGI models the SIGI platform from the MITRE study: a lower-bandwidth
// VME-bus-based design with a heavier software stack.
func SIGI() machine.Platform {
	return machine.Platform{
		Name:              "SIGI",
		NodesPerBoard:     2,
		ClockHz:           200e6,
		FlopsPerCycle:     0.26,
		MemCopyBW:         140e6,
		SendOverhead:      14 * time.Microsecond,
		RecvOverhead:      14 * time.Microsecond,
		IntraLatency:      6 * time.Microsecond,
		IntraBW:           180e6,
		InterLatency:      25 * time.Microsecond,
		InterBW:           100e6,
		FabricConcurrency: 2,
		AllToAll:          "direct",
	}
}

// Workstations is a generic commodity-cluster descriptor used by examples
// and the quickstart; it is not part of the paper's evaluation.
func Workstations() machine.Platform {
	return machine.Platform{
		Name:              "Workstations",
		NodesPerBoard:     1,
		ClockHz:           450e6,
		FlopsPerCycle:     0.25,
		MemCopyBW:         250e6,
		SendOverhead:      30 * time.Microsecond,
		RecvOverhead:      30 * time.Microsecond,
		IntraLatency:      1 * time.Microsecond,
		IntraBW:           300e6,
		InterLatency:      60 * time.Microsecond,
		InterBW:           12.5e6, // 100 Mb/s Ethernet
		FabricConcurrency: 1,      // shared segment
		AllToAll:          "bruck",
	}
}

// registry maps names to constructors.
var registry = map[string]func() machine.Platform{
	"CSPI":         CSPI,
	"Mercury":      Mercury,
	"SKY":          SKY,
	"SIGI":         SIGI,
	"Workstations": Workstations,
}

// ByName returns the named platform descriptor.
func ByName(name string) (machine.Platform, error) {
	f, ok := registry[name]
	if !ok {
		return machine.Platform{}, fmt.Errorf("platforms: unknown platform %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered platform names in sorted order.
func Names() []string {
	return slices.Sorted(maps.Keys(registry))
}

// Vendors lists the four vendor platforms of the MITRE cross-vendor study in
// the order the paper mentions them.
func Vendors() []machine.Platform {
	return []machine.Platform{Mercury(), CSPI(), SIGI(), SKY()}
}
