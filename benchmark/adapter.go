package main

import "gossip"

// The transport's counters are optional: ROADMAP item 4 folds them into one
// snapshot type. Each is read through a one-method interface declared here,
// so an accessor that goes away makes its metrics report missing instead of
// breaking the build of a harness later PRs may not edit.
type (
	wireBytesOuter  interface{ WireBytesOut() int64 }
	wireFramesOuter interface{ WireFramesOut() int64 }
	wireMsgsOuter   interface{ WireMsgsOut() int64 }
	wireFlusher     interface{ WireFlushes() int64 }
	overloader      interface {
		Overload() gossip.LiveOverloadCounts
	}
)

// counterNames are the accessors readCounters looks for.
var counterNames = []string{"WireBytesOut", "WireFramesOut", "WireMsgsOut", "WireFlushes", "Overload"}

// readCounters returns one transport's ledger keyed by accessor name
// (Overload also by field). A key is present only if the transport exports
// the accessor, so a lookup that finds nothing means missing, not zero.
func readCounters(tr any) map[string]int64 {
	got := map[string]int64{}
	if t, ok := tr.(wireBytesOuter); ok {
		got["WireBytesOut"] = t.WireBytesOut()
	}
	if t, ok := tr.(wireFramesOuter); ok {
		got["WireFramesOut"] = t.WireFramesOut()
	}
	if t, ok := tr.(wireMsgsOuter); ok {
		got["WireMsgsOut"] = t.WireMsgsOut()
	}
	if t, ok := tr.(wireFlusher); ok {
		got["WireFlushes"] = t.WireFlushes()
	}
	if t, ok := tr.(overloader); ok {
		o := t.Overload()
		got["Overload"] = o.Shed()
		got["Overload.ShedQueue"], got["Overload.ShedPend"], got["Overload.BreakerOpens"] = o.ShedQueue, o.ShedPend, o.BreakerOpens
	}
	return got
}

// sumCounters adds the daemons' ledgers; a key survives only if every daemon
// has it.
func sumCounters(ledgers []map[string]int64) map[string]int64 {
	sum := map[string]int64{}
	for name := range ledgers[0] {
		for _, l := range ledgers {
			v, ok := l[name]
			if !ok {
				delete(sum, name)
				break
			}
			sum[name] += v
		}
	}
	return sum
}
