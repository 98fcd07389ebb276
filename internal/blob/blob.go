// Package blob implements the cloud repository substrate: a striped object
// store in the spirit of BlobSeer (Nicolae et al.), which the paper uses to
// hold base VM disk images.
//
// A blob is split into fixed-size stripes distributed round-robin over the
// participating storage nodes, so concurrent readers spread load across
// servers — the property the paper relies on to avoid read contention when
// many destinations fetch base-image content simultaneously.
//
// The repository only holds base images, which no run writes, so a blob is
// read-only and stores no content: it moves bytes. Which content a
// destination holds is tracked by package core.
package blob

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// Store is the repository service.
type Store struct {
	Cluster *fabric.Cluster
	Servers []*fabric.Node
	P       params.Repository

	reads     uint64
	readBytes float64
	perServer []float64 // bytes served per server, for balance tests
	fan       *fabric.FanOut

	// reqBytes and reqOrder are gather's scratch: the bytes one request
	// addresses on each server, indexed like Servers, and the servers in
	// first-touch order. They are only used between two yields.
	reqBytes []int64
	reqOrder []int
}

// NewStore creates a repository over the given server nodes.
func NewStore(c *fabric.Cluster, servers []*fabric.Node, p params.Repository) *Store {
	if len(servers) == 0 {
		panic("blob: store needs at least one server")
	}
	if p.StripeSize <= 0 {
		panic("blob: stripe size must be positive")
	}
	return &Store{
		Cluster:   c,
		Servers:   servers,
		P:         p,
		perServer: make([]float64, len(servers)),
		fan:       fabric.NewFanOut(c, servers, flow.TagRepo),
		reqBytes:  make([]int64, len(servers)),
	}
}

// Reads returns the number of per-server reads served: a request counts
// once for each server it touches.
func (s *Store) Reads() uint64 { return s.reads }

// ReadBytes returns the total bytes served.
func (s *Store) ReadBytes() float64 { return s.readBytes }

// ServerBytes returns bytes served per server (index-aligned with Servers).
func (s *Store) ServerBytes() []float64 {
	out := make([]float64, len(s.perServer))
	copy(out, s.perServer)
	return out
}

// Blob is one striped object.
type Blob struct {
	Store *Store
	Size  int64
}

// Create allocates a blob of the given size. Stripe i is placed on server
// i mod N — BlobSeer-style round-robin. Placement is that formula, so a
// blob stores no table.
func (s *Store) Create(size int64) *Blob {
	if size <= 0 {
		panic("blob: size must be positive")
	}
	return &Blob{Store: s, Size: size}
}

// ReadRange fetches bytes [off, off+length) to the client, blocking until
// all data has arrived. After a metadata round trip it issues one flow per
// server, covering every addressed stripe that server holds (round-robin
// placement spreads a big read over many servers).
func (b *Blob) ReadRange(p *sim.Proc, client *fabric.Node, off, length int64) {
	first, last := b.stripeSpan(off, length)
	s := b.Store
	p.Sleep(s.P.MetadataLatency)
	req := s.fan.Begin()
	for _, srv := range b.gather(first, last) {
		req.Read(srv, client, s.serve(srv))
	}
	req.Wait(p)
}

// ReadRangeAsync starts fetching bytes [off, off+length) to the client and
// calls onDone when every byte has arrived. Used by the destination's
// base-image prefetcher. rateCap > 0 limits each server flow's bandwidth.
func (b *Blob) ReadRangeAsync(client *fabric.Node, off, length int64, rateCap float64, onDone func()) {
	first, last := b.stripeSpan(off, length)
	s := b.Store
	order := b.gather(first, last)
	remaining := len(order)
	for _, srv := range order {
		f := &flow.Flow{
			Links:   s.Cluster.RemoteReadPath(s.Servers[srv], client),
			Size:    s.serve(srv),
			MaxRate: rateCap,
			Tag:     flow.TagRepo,
			OnDone: func() {
				remaining--
				if remaining == 0 && onDone != nil {
					onDone()
				}
			},
		}
		s.Cluster.Net.Start(f)
	}
}

// gather sums the bytes stripes [first, last] address on each server into
// reqBytes and returns those servers in first-touch order. The caller must
// serve each returned server before it yields.
func (b *Blob) gather(first, last int) []int {
	s := b.Store
	order := s.reqOrder[:0]
	for i := first; i <= last; i++ {
		srv := i % len(s.Servers)
		if s.reqBytes[srv] == 0 {
			order = append(order, srv)
		}
		s.reqBytes[srv] += b.stripeLen(i)
	}
	s.reqOrder = order
	return order
}

// serve consumes server srv's gathered bytes, counts them as served and
// returns them.
func (s *Store) serve(srv int) float64 {
	bytes := float64(s.reqBytes[srv])
	s.reqBytes[srv] = 0
	s.reads++
	s.readBytes += bytes
	s.perServer[srv] += bytes
	return bytes
}

// stripeSpan converts a byte range to the stripe interval [first, last]
// covering it.
func (b *Blob) stripeSpan(off, length int64) (first, last int) {
	if off < 0 || length <= 0 || off+length > b.Size {
		panic(fmt.Sprintf("blob: range [%d,%d) outside blob of %d bytes", off, off+length, b.Size))
	}
	return int(off / b.Store.P.StripeSize), int((off + length - 1) / b.Store.P.StripeSize)
}

// stripeLen returns the byte length of stripe i (the last may be short).
func (b *Blob) stripeLen(i int) int64 {
	off := int64(i) * b.Store.P.StripeSize
	ln := b.Store.P.StripeSize
	if off+ln > b.Size {
		ln = b.Size - off
	}
	return ln
}
