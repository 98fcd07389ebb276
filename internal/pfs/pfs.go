// Package pfs implements the parallel file system substrate (a PVFS
// stand-in, Carns et al.) used by the pvfs-shared baseline: the traditional
// configuration in which VM disk state lives on shared storage so that live
// migration needs no storage transfer at all — at the price of sending every
// guest I/O over the network.
//
// Files are striped round-robin over I/O server nodes. Every read and write
// is synchronous: the client pays a metadata round trip plus data flows
// to/from the servers holding the addressed stripes. Files store no content:
// which content a VM's disk holds is tracked by package core.
package pfs

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/fabric"
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// Params configures the file system.
type Params struct {
	StripeSize      int64
	MetadataLatency float64 // one metadata round trip (open/lookup)
}

// FS is the parallel file system service.
type FS struct {
	Cluster *fabric.Cluster
	Servers []*fabric.Node
	P       Params

	files      map[string]*File
	readBytes  float64
	writeBytes float64
	requests   uint64

	fan *fabric.FanOut

	// perServer is io's scratch, indexed like Servers: the bytes one
	// request addresses on each server. It is only used between two yields.
	perServer []float64
}

// NewFS creates a file system over the given I/O server nodes, which must
// be distinct; stripe i lives on servers[i%len(servers)].
func NewFS(c *fabric.Cluster, servers []*fabric.Node, p Params) *FS {
	if len(servers) == 0 {
		panic("pfs: need at least one server")
	}
	if p.StripeSize <= 0 {
		panic("pfs: stripe size must be positive")
	}
	return &FS{Cluster: c, Servers: servers, P: p, files: make(map[string]*File),
		fan: fabric.NewFanOut(c, servers, flow.TagPFS), perServer: make([]float64, len(servers))}
}

// ReadBytes returns total bytes served to readers.
func (fs *FS) ReadBytes() float64 { return fs.readBytes }

// WriteBytes returns total bytes accepted from writers.
func (fs *FS) WriteBytes() float64 { return fs.writeBytes }

// Requests returns the number of I/O requests processed.
func (fs *FS) Requests() uint64 { return fs.requests }

// File is one striped file.
type File struct {
	fs   *FS
	Name string
	Size int64
}

// Create makes a file of fixed size (a preallocated virtual disk or
// snapshot file). Creating an existing name panics: the baselines never
// recreate files.
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

// Open returns an existing file or nil.
func (fs *FS) Open(name string) *File { return fs.files[name] }

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

// io performs the data movement common to Read and Write: one flow per
// server covering that server's share of the addressed bytes. Stripes map
// to servers round-robin, so the servers in first-touch order are those of
// stripes first, first+1, ... — the flows start in that order.
func (f *File) io(p *sim.Proc, client *fabric.Node, off, length int64, write bool) {
	fs := f.fs
	fs.requests++
	p.Sleep(fs.P.MetadataLatency)
	first, last := f.span(off, length)
	ns := len(fs.Servers)
	touched := min(last-first+1, ns)
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
	req := fs.fan.Begin()
	for k := 0; k < touched; k++ {
		s := (first + k) % ns
		bytes := perServer[s]
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
