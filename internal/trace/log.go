package trace

// logChunk is how many records one chunk of an eventLog holds.
const logChunk = 64

// eventLog is an append-only record sequence stored in fixed-size chunks.
// Appending never copies a recorded event (a growing slice copies every
// record at each doubling): N records cost ⌈N/logChunk⌉ chunks and a
// chunk index of pointers. Records keep their recording order.
type eventLog[T any] struct {
	chunks []*[logChunk]T
	n      int
}

// add appends v.
func (l *eventLog[T]) add(v T) {
	if l.n == len(l.chunks)*logChunk {
		l.chunks = append(l.chunks, new([logChunk]T))
	}
	l.chunks[l.n/logChunk][l.n%logChunk] = v
	l.n++
}

// len reports the number of records.
func (l *eventLog[T]) len() int { return l.n }

// at returns record i, 0 <= i < len.
func (l *eventLog[T]) at(i int) *T { return &l.chunks[i/logChunk][i%logChunk] }

// appendTo appends the records to dst in recording order.
func (l *eventLog[T]) appendTo(dst []T) []T {
	for ci, ch := range l.chunks {
		dst = append(dst, ch[:min(logChunk, l.n-ci*logChunk)]...)
	}
	return dst
}
