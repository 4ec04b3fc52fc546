package mpi

import "fmt"

// Reserved tag bases keep collective traffic out of the user tag space.
// User code must use tags below TagUserLimit.
const (
	TagUserLimit = 1 << 24
	tagBarrier   = 0x1000
	tagBcast     = 0x2000
	tagGather    = 0x3000
	tagScatter   = 0x4000
	tagAlltoall  = 0x5000
	tagReduce    = 0x6000
	tagAllreduce = 0x7000
	// collTagBase offsets all collective tags above the user space; each
	// communicator adds its own slice on top (see Comm).
	collTagBase = 1 << 24
)

// collCtx abstracts "a participant in a collective" so the same algorithms
// serve the world communicator and split sub-communicators: local rank ids,
// sends/receives in the group's translated namespace, and a way to price
// the self-block copy of an all-to-all.
type collCtx struct {
	size       int
	me         int
	send       func(dst, tag int, body Payload)
	recv       func(src, tag int) Payload
	memcpySelf func(bytes int)
}

func (c *collCtx) sendrecv(dst, sendTag int, body Payload, src, recvTag int) Payload {
	c.send(dst, sendTag, body)
	return c.recv(src, recvTag)
}

// --- algorithms -------------------------------------------------------------

// barrierOn is a dissemination barrier: ceil(log2 n) rounds of small
// messages, charging realistic latency and software overhead rather than
// synchronising for free.
func barrierOn(c *collCtx) {
	n := c.size
	if n == 1 {
		return
	}
	for k := 1; k < n; k <<= 1 {
		dst := (c.me + k) % n
		src := (c.me - k + n) % n
		c.send(dst, tagBarrier+k, Empty())
		c.recv(src, tagBarrier+k)
	}
}

// bcastOn distributes root's payload along a binomial tree.
func bcastOn(c *collCtx, root int, body Payload) Payload {
	n := c.size
	if n == 1 {
		return body
	}
	rel := (c.me - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (rel - mask + root) % n
			body = c.recv(src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (rel + mask + root) % n
			c.send(dst, tagBcast, body)
		}
		mask >>= 1
	}
	return body
}

// gatherOn collects one payload from every participant at root.
func gatherOn(c *collCtx, root int, body Payload) []Payload {
	n := c.size
	if c.me != root {
		c.send(root, tagGather, body)
		return nil
	}
	out := make([]Payload, n)
	out[c.me] = body
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		out[src] = c.recv(src, tagGather)
	}
	return out
}

// scatterOn distributes parts[i] from root to participant i.
func scatterOn(c *collCtx, root int, parts []Payload) Payload {
	n := c.size
	if c.me == root {
		if len(parts) != n {
			panic(fmt.Sprintf("mpi: scatter with %d parts for %d ranks", len(parts), n))
		}
		for dst := 0; dst < n; dst++ {
			if dst == root {
				continue
			}
			c.send(dst, tagScatter, parts[dst])
		}
		return parts[root]
	}
	return c.recv(root, tagScatter)
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
func alltoallOn(c *collCtx, parts []Payload, alg AlltoallAlgorithm) []Payload {
	n := c.size
	if len(parts) != n {
		panic(fmt.Sprintf("mpi: alltoall with %d parts for %d ranks", len(parts), n))
	}
	out := make([]Payload, n)
	// Self block: local copy, priced by the memory system.
	c.memcpySelf(parts[c.me].Bytes)
	out[c.me] = parts[c.me]
	if n == 1 {
		return out
	}
	switch alg {
	case AlltoallDirect:
		alltoallDirectOn(c, parts, out)
	case AlltoallPairwise:
		alltoallPairwiseOn(c, parts, out)
	case AlltoallBruck:
		alltoallBruckOn(c, parts, out)
	default:
		panic(fmt.Sprintf("mpi: unknown alltoall algorithm %q", alg))
	}
	return out
}

func alltoallDirectOn(c *collCtx, parts, out []Payload) {
	n := c.size
	for k := 1; k < n; k++ {
		dst := (c.me + k) % n
		c.send(dst, tagAlltoall, parts[dst])
	}
	for k := 1; k < n; k++ {
		src := (c.me - k + n) % n
		out[src] = c.recv(src, tagAlltoall)
	}
}

func alltoallPairwiseOn(c *collCtx, parts, out []Payload) {
	n := c.size
	pow2 := n&(n-1) == 0
	for k := 1; k < n; k++ {
		var sendTo, recvFrom int
		if pow2 {
			sendTo = c.me ^ k
			recvFrom = sendTo
		} else {
			sendTo = (c.me + k) % n
			recvFrom = (c.me - k + n) % n
		}
		out[recvFrom] = c.sendrecv(sendTo, tagAlltoall+k, parts[sendTo], recvFrom, tagAlltoall+k)
	}
}

// bruckBlock is one (index, payload) unit inside a combined Bruck message.
type bruckBlock struct {
	Index int
	Body  Payload
}

const bruckBlockHeaderBytes = 8

func alltoallBruckOn(c *collCtx, parts, out []Payload) {
	n := c.size
	// Phase 1: local rotation. buf[j] holds the block destined for rank
	// (me + j) mod n.
	buf := make([]Payload, n)
	for j := 1; j < n; j++ {
		buf[j] = parts[(c.me+j)%n]
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
		dst := (c.me + k) % n
		src := (c.me - k + n) % n
		got := c.sendrecv(dst, tagAlltoall+k, Payload{Bytes: bytes, Data: blocks},
			src, tagAlltoall+k)
		for _, b := range got.Data.([]bruckBlock) {
			buf[b.Index] = b.Body
		}
	}
	// Phase 3: after the exchanges, buf[j] holds the block sent by rank
	// (me - j) mod n for us; un-rotate into source order.
	for j := 1; j < n; j++ {
		out[(c.me-j+n)%n] = buf[j]
	}
}

// reduceOn combines every participant's payload at root along a binomial
// tree (non-roots return their partial, which callers should ignore).
func reduceOn(c *collCtx, root int, body Payload, op ReduceOp) Payload {
	n := c.size
	if n == 1 {
		return body
	}
	rel := (c.me - root + n) % n
	acc := body
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			dst := (rel - mask + root) % n
			c.send(dst, tagReduce, acc)
			return acc // this participant is done contributing
		}
		if rel+mask < n {
			src := (rel + mask + root) % n
			acc = op(acc, c.recv(src, tagReduce))
		}
		mask <<= 1
	}
	return acc
}

// allreduceOn combines every participant's payload on all of them:
// recursive doubling on power-of-two sizes, reduce-then-broadcast otherwise.
func allreduceOn(c *collCtx, body Payload, op ReduceOp) Payload {
	n := c.size
	if n == 1 {
		return body
	}
	if n&(n-1) == 0 {
		acc := body
		for mask := 1; mask < n; mask <<= 1 {
			partner := c.me ^ mask
			got := c.sendrecv(partner, tagAllreduce+mask, acc, partner, tagAllreduce+mask)
			acc = op(acc, got)
		}
		return acc
	}
	acc := reduceOn(c, 0, body, op)
	if c.me != 0 {
		acc = Payload{} // only root holds the full reduction
	}
	return bcastOn(c, 0, acc)
}

// --- world-communicator wrappers --------------------------------------------

// collective builds the world collCtx for this rank.
func (r *Rank) collective() *collCtx {
	return &collCtx{
		size: r.Size(),
		me:   r.id,
		send: func(dst, tag int, body Payload) { r.Send(dst, collTagBase+tag, body) },
		recv: func(src, tag int) Payload { return r.Recv(src, collTagBase+tag) },
		memcpySelf: func(bytes int) {
			r.node.Memcpy(r.proc, bytes)
		},
	}
}

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
	r.collSpan("barrier", func() { barrierOn(r.collective()) })
}

// Bcast distributes root's payload to all ranks and returns it everywhere.
// Non-root callers pass anything (ignored).
func (r *Rank) Bcast(root int, body Payload) Payload {
	var out Payload
	r.collSpan("bcast", func() { out = bcastOn(r.collective(), root, body) })
	return out
}

// Gather collects one payload from every rank at root. The root's return
// value is indexed by source rank; other ranks get nil.
func (r *Rank) Gather(root int, body Payload) []Payload {
	var out []Payload
	r.collSpan("gather", func() { out = gatherOn(r.collective(), root, body) })
	return out
}

// Scatter distributes parts[i] from root to rank i and returns this rank's
// part. Only the root's parts argument is consulted.
func (r *Rank) Scatter(root int, parts []Payload) Payload {
	var out Payload
	r.collSpan("scatter", func() { out = scatterOn(r.collective(), root, parts) })
	return out
}

// Alltoall performs a personalised all-to-all exchange: parts[i] is sent to
// rank i; the result is indexed by source rank. The self block is a local
// memory copy. parts must have exactly Size() entries.
func (r *Rank) Alltoall(parts []Payload, alg AlltoallAlgorithm) []Payload {
	var out []Payload
	r.collSpan("alltoall["+string(alg)+"]", func() { out = alltoallOn(r.collective(), parts, alg) })
	return out
}

// Reduce combines every rank's payload at root (op must be associative and
// commutative); non-roots get their partial, which they should ignore.
func (r *Rank) Reduce(root int, body Payload, op ReduceOp) Payload {
	var out Payload
	r.collSpan("reduce", func() { out = reduceOn(r.collective(), root, body, op) })
	return out
}

// Allreduce combines every rank's payload and returns the result on all
// ranks.
func (r *Rank) Allreduce(body Payload, op ReduceOp) Payload {
	var out Payload
	r.collSpan("allreduce", func() { out = allreduceOn(r.collective(), body, op) })
	return out
}
