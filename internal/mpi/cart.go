package mpi

import "fmt"

// CartComm is a communicator with a cartesian process-grid topology, the
// analog of a communicator produced by MPI_cart_create. The paper builds a
// 2-D grid and extracts the row communicator (CommA, used for the x<->z
// transpose) and the column communicator (CommB, used for the z<->y
// transpose and kept node-local for performance).
type CartComm struct {
	*Comm
	dims   []int
	coords []int
}

// CartCreate imposes a row-major cartesian grid with the given dims on the
// communicator. The product of dims must equal the communicator size.
// Every rank must call it.
func (c *Comm) CartCreate(dims []int) *CartComm {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("mpi: invalid cartesian dim %d", d))
		}
		n *= d
	}
	if n != c.size() {
		panic(fmt.Sprintf("mpi: cartesian grid %v has %d slots for %d ranks", dims, n, c.size()))
	}
	cc := &CartComm{Comm: c, dims: append([]int(nil), dims...)}
	cc.coords = cc.RankToCoords(c.rank)
	return cc
}

// Coords returns the calling rank's grid coordinates.
func (cc *CartComm) Coords() []int { return append([]int(nil), cc.coords...) }

// RankToCoords converts a communicator rank to grid coordinates (row-major:
// the last dimension varies fastest, as in MPI).
func (cc *CartComm) RankToCoords(rank int) []int {
	co := make([]int, len(cc.dims))
	for i := len(cc.dims) - 1; i >= 0; i-- {
		co[i] = rank % cc.dims[i]
		rank /= cc.dims[i]
	}
	return co
}

// CartSub builds sub-communicators as MPI_cart_sub does: dimensions with
// keep[i] == true remain in the subgrid; ranks sharing all dropped
// coordinates form one sub-communicator, ordered by the kept coordinates.
// Every rank of the parent must call it.
func (cc *CartComm) CartSub(keep []bool) *CartComm {
	if len(keep) != len(cc.dims) {
		panic("mpi: CartSub keep length mismatch")
	}
	color, key := 0, 0
	var subDims []int
	for i, k := range keep {
		if k {
			key = key*cc.dims[i] + cc.coords[i]
			subDims = append(subDims, cc.dims[i])
		} else {
			color = color*cc.dims[i] + cc.coords[i]
		}
	}
	sub := cc.Comm.Split(color, key)
	out := &CartComm{Comm: sub, dims: subDims}
	out.coords = out.RankToCoords(sub.rank)
	return out
}
