package rtl

import (
	"slices"

	"repro/internal/funclib"
	"repro/internal/model"
)

// Physical buffers (DESIGN.md §14). The plan decides every storage and the
// Program carries the decisions (Port.Storage, Thread.InPlace,
// Thread.Transposes, Thread.Result); Execute only allocates them. Each
// storage the Program names gets P = min(Slots, Iterations) dense blocks,
// allocated once per run by the thread's own goroutine. At iteration i the
// thread writes block i mod P; from i = P on it first waits until every
// reader of the storage has finished iteration i − P, the last one that used
// the block. Every reader is the thread itself or downstream of it, so each
// wait is for an earlier iteration of a thread that depends on nothing still
// waiting: by induction on the iteration, the run cannot deadlock.

// storage is the physical memory behind one port's Storage.
type storage struct {
	*Storage
	region model.Region
	blocks []*funclib.Block // block i mod P serves iteration i
}

// newStorages gives each Storage of ports the slots of its min(Slots,
// Iterations) blocks, which the owning thread allocates (allocate).
func newStorages(p *Program, ports []Port) []*storage {
	ss := make([]*storage, len(ports))
	for pi := range ports {
		if s := ports[pi].Storage; s != nil {
			ss[pi] = &storage{Storage: s, region: ports[pi].Region, blocks: make([]*funclib.Block, min(p.slots(), p.Iterations))}
		}
	}
	return ss
}

// host indexes the first thread of t's result host, or is -1.
func (p *Program) host(t *Thread) int {
	if t.Result == "" {
		return -1
	}
	return slices.IndexFunc(p.Threads, func(u Thread) bool { return u.Fn == t.Result && u.Kind == "sink_matrix" })
}
