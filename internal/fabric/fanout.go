package fabric

import (
	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// FanOut is the blocking request path of a striped storage service (the
// PFS, the repository): one request moves bytes between a client and
// several of the service's servers at once, one flow per server, and the
// client waits for all of them. Flows come from the net's pool and go back
// to it once the request is over, and each client's paths to the servers
// are built on its first request and shared by every later one (a flow
// never mutates its Links), so a request allocates nothing.
type FanOut struct {
	c       *Cluster
	servers []*Node
	tag     flow.Tag

	// paths holds, by client node ID, the read path from each server and
	// then the write path to each; nil until the client's first request.
	paths [][][]*flow.Link
	free  []*Request
}

// NewFanOut returns the fan-out of a service over the given servers, whose
// flows carry tag.
func NewFanOut(c *Cluster, servers []*Node, tag flow.Tag) *FanOut {
	return &FanOut{c: c, servers: servers, tag: tag}
}

// A Request is one blocking fan-out in progress: Read and Write start its
// flows, Wait blocks until all have completed.
type Request struct {
	fo    *FanOut
	flows []*flow.Flow
	wg    sim.WaitGroup
	done  func()
}

// Begin starts a request.
func (fo *FanOut) Begin() *Request {
	if k := len(fo.free); k > 0 {
		r := fo.free[k-1]
		fo.free[k-1] = nil
		fo.free = fo.free[:k-1]
		return r
	}
	r := &Request{fo: fo}
	eng := fo.c.Eng
	r.done = func() { r.wg.Done(eng) }
	return r
}

// Read starts a flow of size bytes from server s's disk to the client.
func (r *Request) Read(s int, client *Node, size float64) { r.start(s, client, false, size) }

// Write starts a flow of size bytes from the client to server s's disk.
func (r *Request) Write(client *Node, s int, size float64) { r.start(s, client, true, size) }

func (r *Request) start(s int, client *Node, write bool, size float64) {
	net := r.fo.c.Net
	f := net.AcquireFlow()
	f.Links, f.Size, f.Tag, f.OnDone = r.fo.path(s, client, write), size, r.fo.tag, r.done
	r.wg.Add(1)
	net.Start(f)
	r.flows = append(r.flows, f)
}

// Wait blocks until every flow of the request has completed, then returns
// the flows and the request to their pools: neither may be used again.
func (r *Request) Wait(p *sim.Proc) {
	r.wg.Wait(p)
	net := r.fo.c.Net
	for i, f := range r.flows {
		net.ReleaseFlow(f)
		r.flows[i] = nil
	}
	r.flows = r.flows[:0]
	r.fo.free = append(r.fo.free, r)
}

// path returns the cached path between server s and the client.
func (fo *FanOut) path(s int, client *Node, write bool) []*flow.Link {
	if client.ID >= len(fo.paths) {
		fo.paths = append(fo.paths, make([][][]*flow.Link, client.ID+1-len(fo.paths))...)
	}
	ps := fo.paths[client.ID]
	if ps == nil {
		ps = make([][]*flow.Link, 2*len(fo.servers))
		fo.paths[client.ID] = ps
	}
	i := s
	if write {
		i += len(fo.servers)
	}
	if ps[i] == nil {
		if write {
			ps[i] = fo.c.RemoteWritePath(client, fo.servers[s])
		} else {
			ps[i] = fo.c.RemoteReadPath(fo.servers[s], client)
		}
	}
	return ps[i]
}
