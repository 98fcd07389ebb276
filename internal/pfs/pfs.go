// Package pfs implements the striped storage service of the testbed. As in
// the paper's Section 5.2, two instances of it span the compute nodes with
// the same stripes: the cloud repository (a BlobSeer stand-in, Nicolae et
// al.) that holds the base VM image, and the parallel file system (a PVFS
// stand-in, Carns et al.) that the pvfs-shared, multiattach and precopy
// baselines keep disk state on — the configuration in which migration needs
// no storage transfer at all, at the price of sending every guest I/O over
// the network.
//
// Files are striped round-robin over the server nodes, so concurrent
// clients spread their load across servers. A blocking read or write pays
// a metadata round trip plus one flow to or from each server holding an
// addressed stripe, and it moves exactly the bytes it addresses. Files
// store no content: which content a VM's disk holds is tracked by package
// core.
package pfs

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// FS is one instance of the striped storage service.
type FS struct {
	Cluster *fabric.Cluster
	Servers []*fabric.Node
	P       params.Repository

	files      map[string]*File
	readBytes  float64
	writeBytes float64

	tag flow.Tag
	fan *fabric.FanOut

	// perServer is spread's scratch, indexed like Servers: the bytes one
	// request addresses on each server. It is only used between two yields.
	perServer []float64
}

// NewFS creates a service over the given server nodes, which must be
// distinct; stripe i lives on servers[i%len(servers)] and every flow the
// service starts carries tag.
func NewFS(c *fabric.Cluster, servers []*fabric.Node, p params.Repository, tag flow.Tag) *FS {
	if len(servers) == 0 {
		panic("pfs: need at least one server")
	}
	if p.StripeSize <= 0 {
		panic("pfs: stripe size must be positive")
	}
	return &FS{Cluster: c, Servers: servers, P: p, files: make(map[string]*File),
		tag: tag, fan: fabric.NewFanOut(c, servers, tag), perServer: make([]float64, len(servers))}
}

// ReadBytes returns total bytes served to readers.
func (fs *FS) ReadBytes() float64 { return fs.readBytes }

// WriteBytes returns total bytes accepted from writers.
func (fs *FS) WriteBytes() float64 { return fs.writeBytes }

// File is one striped file.
type File struct {
	fs   *FS
	Name string
	Size int64
}

// Create makes a file of fixed size (a base image, a preallocated virtual
// disk or a snapshot file). Creating an existing name panics: the testbed
// never recreates files.
func (fs *FS) Create(name string, size int64) *File {
	if size <= 0 {
		panic("pfs: file size must be positive")
	}
	if _, ok := fs.files[name]; ok {
		panic(fmt.Sprintf("pfs: file %q already exists", name))
	}
	f := &File{fs: fs, Name: name, Size: size}
	fs.files[name] = f
	return f
}

// stripeLen returns the byte length of stripe i.
func (f *File) stripeLen(i int) int64 {
	off := int64(i) * f.fs.P.StripeSize
	ln := f.fs.P.StripeSize
	if off+ln > f.Size {
		ln = f.Size - off
	}
	return ln
}

// span converts a byte range to a stripe interval [first, last].
func (f *File) span(off, length int64) (first, last int) {
	if off < 0 || length <= 0 || off+length > f.Size {
		panic(fmt.Sprintf("pfs: range [%d,%d) outside file %q of %d bytes", off, off+length, f.Name, f.Size))
	}
	return int(off / f.fs.P.StripeSize), int((off + length - 1) / f.fs.P.StripeSize)
}

// spread sums into perServer the bytes [off, off+length) addresses on each
// server. Stripes map to servers round-robin, so the servers in first-touch
// order are those of stripes first, first+1, ...: server (first+k)%N for
// k < touched. Callers start their flows in that order.
func (f *File) spread(off, length int64) (first, touched int) {
	fs := f.fs
	first, last := f.span(off, length)
	ns := len(fs.Servers)
	touched = min(last-first+1, ns)
	perServer := fs.perServer
	for k := 0; k < touched; k++ {
		perServer[(first+k)%ns] = 0
	}
	remaining := length
	for i := first; i <= last; i++ {
		// Bytes of this stripe actually addressed.
		sOff := int64(i) * fs.P.StripeSize
		b := f.stripeLen(i)
		if sOff < off {
			b -= off - sOff
		}
		if b > remaining {
			b = remaining
		}
		remaining -= b
		perServer[i%ns] += float64(b)
	}
	return first, touched
}

// io performs the data movement common to Read and Write: after a metadata
// round trip, one flow per server covering that server's share of the
// addressed bytes.
func (f *File) io(p *sim.Proc, client *fabric.Node, off, length int64, write bool) {
	fs := f.fs
	p.Sleep(fs.P.MetadataLatency)
	first, touched := f.spread(off, length)
	ns := len(fs.Servers)
	req := fs.fan.Begin()
	for k := 0; k < touched; k++ {
		s := (first + k) % ns
		bytes := fs.perServer[s]
		if write {
			fs.writeBytes += bytes
			req.Write(client, s, bytes)
		} else {
			fs.readBytes += bytes
			req.Read(s, client, bytes)
		}
	}
	req.Wait(p)
}

// Read fetches [off, off+length) to the client, blocking until complete.
func (f *File) Read(p *sim.Proc, client *fabric.Node, off, length int64) {
	f.io(p, client, off, length, false)
}

// Write stores [off, off+length) from the client, blocking until all
// servers acknowledge.
func (f *File) Write(p *sim.Proc, client *fabric.Node, off, length int64) {
	f.io(p, client, off, length, true)
}

// ReadAsync starts fetching [off, off+length) to the client and calls
// onDone when every byte has arrived; it pays no metadata round trip. The
// destination's base-image prefetcher uses it. rateCap > 0 caps each
// server's flow, not the read: a read over k servers may take k × rateCap.
func (f *File) ReadAsync(client *fabric.Node, off, length int64, rateCap float64, onDone func()) {
	fs := f.fs
	first, touched := f.spread(off, length)
	ns := len(fs.Servers)
	remaining := touched
	for k := 0; k < touched; k++ {
		s := (first + k) % ns
		bytes := fs.perServer[s]
		fs.readBytes += bytes
		fs.Cluster.Net.Start(&flow.Flow{
			Links:   fs.Cluster.RemoteReadPath(fs.Servers[s], client),
			Size:    bytes,
			MaxRate: rateCap,
			Tag:     fs.tag,
			OnDone: func() {
				remaining--
				if remaining == 0 && onDone != nil {
					onDone()
				}
			},
		})
	}
}
