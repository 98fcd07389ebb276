// Package blob implements the cloud repository substrate: a striped,
// replicated, versioned object store in the spirit of BlobSeer (Nicolae et
// al.), which the paper uses to hold base VM disk images.
//
// A blob's content is split into fixed-size stripes distributed round-robin
// over the participating storage nodes, so concurrent readers spread load
// across servers — the property the paper relies on to avoid read contention
// when many destinations fetch base-image content simultaneously.
//
// Writes never modify stripes in place: each write publishes a new version
// whose stripe map shares unmodified stripes with its parent (shadowing).
// Content is identified by 64-bit content IDs rather than materialized
// bytes; see package core for how IDs propagate.
package blob

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/chunk"
	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// ContentID identifies the content of one stripe. The zero value means
// "never written" (reads as zeros).
type ContentID uint64

// Store is the repository service.
type Store struct {
	Cluster *fabric.Cluster
	Servers []*fabric.Node
	P       params.Repository

	nextBlobID int
	nextRead   int // round-robin replica selector
	reads      uint64
	readBytes  float64
	perServer  []float64 // bytes served per server, for balance tests
	fan        *fabric.FanOut

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
	if p.Replication <= 0 {
		p.Replication = 1
	}
	if p.Replication > len(servers) {
		p.Replication = len(servers)
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

// Reads returns the number of read requests served.
func (s *Store) Reads() uint64 { return s.reads }

// ReadBytes returns the total bytes served.
func (s *Store) ReadBytes() float64 { return s.readBytes }

// ServerBytes returns bytes served per server (index-aligned with Servers).
func (s *Store) ServerBytes() []float64 {
	out := make([]float64, len(s.perServer))
	copy(out, s.perServer)
	return out
}

// Blob is one versioned striped object.
type Blob struct {
	Store *Store
	ID    int
	Size  int64

	version int
	content chunk.IDs[ContentID] // per stripe; paged, as a base image is implicit and rarely written
}

// Stripes returns the number of stripes in the blob.
func (b *Blob) Stripes() int { return b.content.Len() }

// Version returns the blob's current version number.
func (b *Blob) Version() int { return b.version }

// Create allocates a blob of the given size with zero content. Stripe i is
// placed on servers (i, i+1, ... i+R-1) mod N — BlobSeer-style round-robin
// with replication. Placement is that formula, so a blob stores no table.
func (s *Store) Create(size int64) *Blob {
	if size <= 0 {
		panic("blob: size must be positive")
	}
	n := int((size + s.P.StripeSize - 1) / s.P.StripeSize)
	b := &Blob{
		Store:   s,
		ID:      s.nextBlobID,
		Size:    size,
		content: chunk.NewIDs[ContentID](n),
	}
	s.nextBlobID++
	return b
}

// PutBase installs a base image without simulating the upload: stripe i
// reads first+i until it is written. The IDs are implicit, so a base image
// stores no table.
func (b *Blob) PutBase(first ContentID) {
	b.content = chunk.NewBaseIDs(b.content.Len(), first)
	b.version++
}

// ContentAt returns the content ID of stripe i.
func (b *Blob) ContentAt(i int) ContentID { return b.content.At(i) }

// stripeServer picks the replica server for a read. round rotates the
// replica choice across successive read requests so repeated reads of the
// same stripes spread over all replicas deterministically.
func (b *Blob) stripeServer(i, round int) int {
	return b.replicaServer(i, (i+round)%b.Store.P.Replication)
}

// replicaServer returns the server holding replica r of stripe i.
func (b *Blob) replicaServer(i, r int) int { return (i + r) % len(b.Store.Servers) }

// Read fetches stripes [first, first+count) to the client node, blocking
// until all data has arrived. It issues one flow per server, covering every
// stripe of the request that server holds (round-robin placement spreads a
// big read over many servers). Returns the content IDs of the stripes read.
func (b *Blob) Read(p *sim.Proc, client *fabric.Node, first, count int) []ContentID {
	if first < 0 || count <= 0 || first+count > b.content.Len() {
		panic(fmt.Sprintf("blob: read [%d,%d) of blob with %d stripes", first, first+count, b.content.Len()))
	}
	b.read(p, client, first, count)
	out := make([]ContentID, count)
	for i := range out {
		out[i] = b.content.At(first + i)
	}
	return out
}

// read is Read without collecting the content IDs.
func (b *Blob) read(p *sim.Proc, client *fabric.Node, first, count int) {
	s := b.Store
	p.Sleep(s.P.MetadataLatency)
	round := s.nextRead
	s.nextRead++
	b.transfer(p, client, first, count, round, false)
}

// gather sums the bytes stripes [first, first+count) address on each server
// into reqBytes and returns those servers in first-touch order. A read takes
// replica (i+round) mod R of stripe i, a write its primary. The caller must
// zero each server's reqBytes entry as it consumes it, before it yields.
func (b *Blob) gather(first, count, round int, write bool) []int {
	s := b.Store
	order := s.reqOrder[:0]
	for i := first; i < first+count; i++ {
		srv := b.replicaServer(i, 0)
		if !write {
			srv = b.stripeServer(i, round)
		}
		if s.reqBytes[srv] == 0 {
			order = append(order, srv)
		}
		s.reqBytes[srv] += b.stripeLen(i)
	}
	s.reqOrder = order
	return order
}

// transfer moves stripes [first, first+count) between the client and the
// servers holding them, one flow per server in first-touch order, and
// blocks until every flow has completed.
func (b *Blob) transfer(p *sim.Proc, client *fabric.Node, first, count, round int, write bool) {
	s := b.Store
	req := s.fan.Begin()
	for _, srv := range b.gather(first, count, round, write) {
		bytes := float64(s.reqBytes[srv])
		s.reqBytes[srv] = 0
		if write {
			req.Write(client, srv, bytes)
		} else {
			s.reads++
			s.readBytes += bytes
			s.perServer[srv] += bytes
			req.Read(srv, client, bytes)
		}
	}
	req.Wait(p)
}

// ReadAsync starts fetching stripes [first, first+count) to the client and
// calls onDone when every byte has arrived. Used by the destination's
// base-image prefetcher. rateCap > 0 limits aggregate prefetch bandwidth.
func (b *Blob) ReadAsync(client *fabric.Node, first, count int, rateCap float64, onDone func()) {
	s := b.Store
	round := s.nextRead
	s.nextRead++
	order := b.gather(first, count, round, false)
	remaining := len(order)
	for _, srv := range order {
		bytes := float64(s.reqBytes[srv])
		s.reqBytes[srv] = 0
		server := s.Servers[srv]
		s.reads++
		s.readBytes += bytes
		s.perServer[srv] += bytes
		f := &flow.Flow{
			Links:   s.Cluster.RemoteReadPath(server, client),
			Size:    bytes,
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

// Write publishes new content for stripes [first, first+count): data moves
// from the client to each stripe's primary server, then the blob's version
// advances. ids supplies the new content IDs.
func (b *Blob) Write(p *sim.Proc, client *fabric.Node, first int, ids []ContentID) {
	count := len(ids)
	if first < 0 || count == 0 || first+count > b.content.Len() {
		panic(fmt.Sprintf("blob: write [%d,%d) of blob with %d stripes", first, first+count, b.content.Len()))
	}
	p.Sleep(b.Store.P.MetadataLatency)
	b.transfer(p, client, first, count, 0, true)
	for i, id := range ids {
		b.content.Set(first+i, id)
	}
	b.version++
}

// StripeSpan converts a byte range to the stripe interval covering it.
func (b *Blob) StripeSpan(off, length int64) (first, count int) {
	if off < 0 || length <= 0 || off+length > b.Size {
		panic(fmt.Sprintf("blob: range [%d,%d) outside blob of %d bytes", off, off+length, b.Size))
	}
	first = int(off / b.Store.P.StripeSize)
	last := int((off + length - 1) / b.Store.P.StripeSize)
	return first, last - first + 1
}

// ReadRange is Read addressed in bytes instead of stripes.
func (b *Blob) ReadRange(p *sim.Proc, client *fabric.Node, off, length int64) {
	first, count := b.StripeSpan(off, length)
	b.read(p, client, first, count)
}

// ReadRangeAsync is ReadAsync addressed in bytes instead of stripes.
func (b *Blob) ReadRangeAsync(client *fabric.Node, off, length int64, rateCap float64, onDone func()) {
	first, count := b.StripeSpan(off, length)
	b.ReadAsync(client, first, count, rateCap, onDone)
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
