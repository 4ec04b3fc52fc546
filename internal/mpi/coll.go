package mpi

import "fmt"

// Reserved tag bases keep collective traffic out of the user tag space.
// User code must use tags below TagUserLimit.
const (
	TagUserLimit = 1 << 24
	tagBarrier   = 0x1000
	tagGather    = 0x3000
	tagScatter   = 0x4000
	tagAlltoall  = 0x5000
	// collTagBase offsets all collective tags above the user space.
	collTagBase = 1 << 24
)

// collSend and collRecv move one collective message in the reserved tag
// space.
func (r *Rank) collSend(dst, tag int, body Payload) { r.Send(dst, collTagBase+tag, body) }
func (r *Rank) collRecv(src, tag int) Payload       { return r.Recv(src, collTagBase+tag) }

// --- algorithms -------------------------------------------------------------

// barrierOn is a dissemination barrier: ceil(log2 n) rounds of small
// messages, charging realistic latency and software overhead rather than
// synchronising for free.
func barrierOn(r *Rank) {
	n := r.Size()
	if n == 1 {
		return
	}
	for k := 1; k < n; k <<= 1 {
		dst := (r.id + k) % n
		src := (r.id - k + n) % n
		r.collSend(dst, tagBarrier+k, Empty())
		r.collRecv(src, tagBarrier+k)
	}
}

// gatherOn collects one payload from every rank at root.
func gatherOn(r *Rank, root int, body Payload) []Payload {
	n := r.Size()
	if r.id != root {
		r.collSend(root, tagGather, body)
		return nil
	}
	out := make([]Payload, n)
	out[r.id] = body
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		out[src] = r.collRecv(src, tagGather)
	}
	return out
}

// scatterOn distributes parts[i] from root to rank i.
func scatterOn(r *Rank, root int, parts []Payload) Payload {
	n := r.Size()
	if r.id == root {
		if len(parts) != n {
			panic(fmt.Sprintf("mpi: scatter with %d parts for %d ranks", len(parts), n))
		}
		for dst := 0; dst < n; dst++ {
			if dst == root {
				continue
			}
			r.collSend(dst, tagScatter, parts[dst])
		}
		return parts[root]
	}
	return r.collRecv(root, tagScatter)
}

// AlltoallAlgorithm selects the collective exchange schedule; the paper notes
// each hardware vendor shipped its own tuned MPI_All_to_All.
type AlltoallAlgorithm string

const (
	// AlltoallDirect posts all sends then all receives: minimal software
	// logic, maximal fabric concurrency; best on a true crossbar (Mercury).
	AlltoallDirect AlltoallAlgorithm = "direct"
	// AlltoallPairwise exchanges with one partner per step (XOR schedule on
	// power-of-two sizes, ring otherwise), bounding contention on switched
	// fabrics (CSPI Myrinet).
	AlltoallPairwise AlltoallAlgorithm = "pairwise"
	// AlltoallBruck combines blocks into log2(n) larger messages, trading
	// extra bytes for fewer message overheads; best when per-message
	// overhead or latency dominates (shared backplanes, Ethernet).
	AlltoallBruck AlltoallAlgorithm = "bruck"
)

// AlgorithmFor maps a platform's AllToAll preference string onto an
// algorithm, defaulting to pairwise.
func AlgorithmFor(name string) AlltoallAlgorithm {
	switch AlltoallAlgorithm(name) {
	case AlltoallDirect, AlltoallPairwise, AlltoallBruck:
		return AlltoallAlgorithm(name)
	default:
		return AlltoallPairwise
	}
}

// alltoallOn performs a personalised all-to-all exchange.
func alltoallOn(r *Rank, parts []Payload, alg AlltoallAlgorithm) []Payload {
	n := r.Size()
	if len(parts) != n {
		panic(fmt.Sprintf("mpi: alltoall with %d parts for %d ranks", len(parts), n))
	}
	out := make([]Payload, n)
	// Self block: local copy, priced by the memory system.
	r.node.Memcpy(r.proc, parts[r.id].Bytes)
	out[r.id] = parts[r.id]
	if n == 1 {
		return out
	}
	switch alg {
	case AlltoallDirect:
		alltoallDirectOn(r, parts, out)
	case AlltoallPairwise:
		alltoallPairwiseOn(r, parts, out)
	case AlltoallBruck:
		alltoallBruckOn(r, parts, out)
	default:
		panic(fmt.Sprintf("mpi: unknown alltoall algorithm %q", alg))
	}
	return out
}

func alltoallDirectOn(r *Rank, parts, out []Payload) {
	n := r.Size()
	for k := 1; k < n; k++ {
		dst := (r.id + k) % n
		r.collSend(dst, tagAlltoall, parts[dst])
	}
	for k := 1; k < n; k++ {
		src := (r.id - k + n) % n
		out[src] = r.collRecv(src, tagAlltoall)
	}
}

func alltoallPairwiseOn(r *Rank, parts, out []Payload) {
	n := r.Size()
	pow2 := n&(n-1) == 0
	for k := 1; k < n; k++ {
		var sendTo, recvFrom int
		if pow2 {
			sendTo = r.id ^ k
			recvFrom = sendTo
		} else {
			sendTo = (r.id + k) % n
			recvFrom = (r.id - k + n) % n
		}
		r.collSend(sendTo, tagAlltoall+k, parts[sendTo])
		out[recvFrom] = r.collRecv(recvFrom, tagAlltoall+k)
	}
}

// bruckBlock is one (index, payload) unit inside a combined Bruck message.
type bruckBlock struct {
	Index int
	Body  Payload
}

const bruckBlockHeaderBytes = 8

func alltoallBruckOn(r *Rank, parts, out []Payload) {
	n := r.Size()
	// Phase 1: local rotation. buf[j] holds the block destined for rank
	// (me + j) mod n.
	buf := make([]Payload, n)
	for j := 1; j < n; j++ {
		buf[j] = parts[(r.id+j)%n]
	}
	// Phase 2: log2(n) combined exchanges.
	for k := 1; k < n; k <<= 1 {
		var blocks []bruckBlock
		bytes := 0
		for j := 1; j < n; j++ {
			if j&k != 0 {
				blocks = append(blocks, bruckBlock{Index: j, Body: buf[j]})
				bytes += buf[j].Bytes + bruckBlockHeaderBytes
			}
		}
		r.collSend((r.id+k)%n, tagAlltoall+k, Payload{Bytes: bytes, Data: blocks})
		got := r.collRecv((r.id-k+n)%n, tagAlltoall+k)
		for _, b := range got.Data.([]bruckBlock) {
			buf[b.Index] = b.Body
		}
	}
	// Phase 3: after the exchanges, buf[j] holds the block sent by rank
	// (me - j) mod n for us; un-rotate into source order.
	for j := 1; j < n; j++ {
		out[(r.id-j+n)%n] = buf[j]
	}
}

// --- collectives -------------------------------------------------------------

// collSpan runs one collective under a trace span when the machine is
// traced: the span covers this rank's participation, on the calling
// process's track, named after the collective (and, for all-to-all, its
// algorithm).
func (r *Rank) collSpan(name string, f func()) {
	tr := r.w.Mach.Trace()
	if !tr.Enabled() {
		f()
		return
	}
	start := r.proc.Now()
	f()
	tr.Collective(r.node.ID, tr.Track(r.proc), name, start, r.proc.Now())
}

// Barrier synchronises all ranks (dissemination barrier).
func (r *Rank) Barrier() {
	r.collSpan("barrier", func() { barrierOn(r) })
}

// Gather collects one payload from every rank at root. The root's return
// value is indexed by source rank; other ranks get nil.
func (r *Rank) Gather(root int, body Payload) []Payload {
	var out []Payload
	r.collSpan("gather", func() { out = gatherOn(r, root, body) })
	return out
}

// Scatter distributes parts[i] from root to rank i and returns this rank's
// part. Only the root's parts argument is consulted.
func (r *Rank) Scatter(root int, parts []Payload) Payload {
	var out Payload
	r.collSpan("scatter", func() { out = scatterOn(r, root, parts) })
	return out
}

// Alltoall performs a personalised all-to-all exchange: parts[i] is sent to
// rank i; the result is indexed by source rank. The self block is a local
// memory copy. parts must have exactly Size() entries.
func (r *Rank) Alltoall(parts []Payload, alg AlltoallAlgorithm) []Payload {
	var out []Payload
	r.collSpan("alltoall["+string(alg)+"]", func() { out = alltoallOn(r, parts, alg) })
	return out
}
