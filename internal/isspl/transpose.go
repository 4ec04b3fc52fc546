package isspl

import "fmt"

// The corner turn — redistributing a matrix so that processing can switch
// from row-oriented to column-oriented access — is one of the paper's two
// benchmark applications. On a single node it is a matrix transpose; the
// distributed version (internal/handcoded, internal/sagert) combines local
// block transposes with an all-to-all exchange of tiles.

// transposeBlock is the cache-blocking tile edge used by the blocked
// transposes.
const transposeBlock = 32

// TransposeSquare transposes an n x n row-major matrix in place using a
// cache-blocked sweep of the upper triangle.
func TransposeSquare(data []complex128, n int) {
	if len(data) != n*n {
		panic(fmt.Sprintf("isspl: TransposeSquare length %d != %d^2", len(data), n))
	}
	for bi := 0; bi < n; bi += transposeBlock {
		for bj := bi; bj < n; bj += transposeBlock {
			iMax := min(bi+transposeBlock, n)
			jMax := min(bj+transposeBlock, n)
			for i := bi; i < iMax; i++ {
				jStart := bj
				if bi == bj {
					jStart = i + 1
				}
				for j := jStart; j < jMax; j++ {
					data[i*n+j], data[j*n+i] = data[j*n+i], data[i*n+j]
				}
			}
		}
	}
}

// Transpose writes the transpose of the rows x cols row-major matrix src
// into dst (which must have the same length and is interpreted as
// cols x rows). src and dst must not alias.
func Transpose(dst, src []complex128, rows, cols int) {
	if len(src) != rows*cols || len(dst) != rows*cols {
		panic(fmt.Sprintf("isspl: Transpose %dx%d with src %d dst %d", rows, cols, len(src), len(dst)))
	}
	TransposeTile(dst, rows, src, cols, rows, cols)
}

// TransposeTile is the one transposing copy: it writes the h x w tile of src,
// whose rows start srcPitch samples apart, transposed into dst, whose rows
// start dstPitch samples apart — tile element (i, j), src[i*srcPitch+j],
// lands at dst[j*dstPitch+i]. The sweep is cache-blocked: without blocking,
// each inner step writes a full dst row apart, so large tiles evict every
// line before reuse. src and dst must not overlap.
func TransposeTile(dst []complex128, dstPitch int, src []complex128, srcPitch, h, w int) {
	if h == 0 || w == 0 {
		return
	}
	if len(src) < (h-1)*srcPitch+w || len(dst) < (w-1)*dstPitch+h {
		panic(fmt.Sprintf("isspl: TransposeTile %dx%d (pitch %d -> %d) with src %d dst %d", h, w, srcPitch, dstPitch, len(src), len(dst)))
	}
	for bi := 0; bi < h; bi += transposeBlock {
		for bj := 0; bj < w; bj += transposeBlock {
			iMax := min(bi+transposeBlock, h)
			jMax := min(bj+transposeBlock, w)
			for i := bi; i < iMax; i++ {
				row := src[i*srcPitch : i*srcPitch+jMax]
				for j := bj; j < jMax; j++ {
					dst[j*dstPitch+i] = row[j]
				}
			}
		}
	}
}

// GatherTile copies the tile [r0, r0+h) x [c0, c0+w) of a rows x cols
// row-major matrix into a dense h*w buffer (row-major). It is the packing
// step of the distributed corner turn.
func GatherTile(dst, src []complex128, rows, cols, r0, c0, h, w int) {
	if r0 < 0 || c0 < 0 || r0+h > rows || c0+w > cols {
		panic(fmt.Sprintf("isspl: GatherTile [%d:%d)x[%d:%d) outside %dx%d", r0, r0+h, c0, c0+w, rows, cols))
	}
	if len(dst) < h*w {
		panic("isspl: GatherTile destination too small")
	}
	for i := 0; i < h; i++ {
		copy(dst[i*w:(i+1)*w], src[(r0+i)*cols+c0:(r0+i)*cols+c0+w])
	}
}

// ScatterTileTransposed writes a dense h x w tile (in the sender's row-major
// orientation) into a row-major destination with dstCols columns,
// transposing it: tile element (i, j) lands at dst row row0+j, column
// col0+i. It is the unpacking step of the distributed corner turn, where the
// receiver stores incoming row-tiles as column data.
func ScatterTileTransposed(dst, tile []complex128, dstCols, row0, col0, h, w int) {
	dstRows := len(dst) / dstCols
	if row0 < 0 || col0 < 0 || row0+w > dstRows || col0+h > dstCols {
		panic(fmt.Sprintf("isspl: ScatterTileTransposed %dx%d tile at (%d,%d) outside %dx%d", h, w, row0, col0, dstRows, dstCols))
	}
	if len(tile) < h*w {
		panic("isspl: ScatterTileTransposed tile too small")
	}
	TransposeTile(dst[row0*dstCols+col0:], dstCols, tile, w, h, w)
}
