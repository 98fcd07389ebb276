// Package fabric models the datacenter: a set of compute nodes, each with a
// full-duplex NIC and a local disk, interconnected through a shared switch
// fabric of finite aggregate capacity.
//
// All resources are flow.Links; every transfer composes a path through them:
//
//	network transfer:   nicOut(src) -> fabric -> nicIn(dst)
//	local disk I/O:     disk(node)
//	remote disk read:   disk(server) -> nicOut(server) -> fabric -> nicIn(client)
//
// Composing disk and network links into a single flow makes the slowest
// resource the end-to-end bottleneck, which is how the paper's 55 MB/s disks
// throttle repository fetches even over a faster network.
package fabric

import (
	"fmt"

	"github.com/hybridmig/hybridmig/internal/flow"
	"github.com/hybridmig/hybridmig/internal/params"
	"github.com/hybridmig/hybridmig/internal/sim"
)

// Node is one compute node.
type Node struct {
	ID     int
	NICIn  *flow.Link
	NICOut *flow.Link
	Disk   *flow.Link

	diskPath []*flow.Link // {Disk}: the path of every local disk I/O
	netPaths []netPath    // NetPath's paths from this node, in first-use order
}

// netPath is a cached network path to one destination node.
type netPath struct {
	dst   *Node
	links []*flow.Link
}

func (n *Node) String() string { return fmt.Sprintf("node%d", n.ID) }

// Cluster is the simulated datacenter.
type Cluster struct {
	Eng    *sim.Engine
	Net    *flow.Net
	Fabric *flow.Link
	Nodes  []*Node
	P      params.Testbed

	partitions []partitionWindow // scheduled isolation spans (see Partition)
}

// NewCluster builds a datacenter of n nodes with the given testbed constants.
func NewCluster(eng *sim.Engine, n int, p params.Testbed) *Cluster {
	if n <= 0 {
		panic("fabric: cluster needs at least one node")
	}
	c := &Cluster{
		Eng:    eng,
		Net:    flow.NewNet(eng),
		Fabric: flow.NewLink("fabric", p.FabricBandwidth),
		P:      p,
	}
	c.Nodes = make([]*Node, n)
	for i := range c.Nodes {
		nd := &Node{
			ID:     i,
			NICIn:  flow.NewLink(fmt.Sprintf("node%d.in", i), p.NICBandwidth),
			NICOut: flow.NewLink(fmt.Sprintf("node%d.out", i), p.NICBandwidth),
			Disk:   flow.NewLink(fmt.Sprintf("node%d.disk", i), p.DiskBandwidth),
		}
		nd.diskPath = []*flow.Link{nd.Disk}
		c.Nodes[i] = nd
	}
	return c
}

// NetPath returns the link path for a network transfer src -> dst.
// Transfers to self cross no links (loopback). A pair's path is built on
// its first transfer and shared by every later one, since a flow never
// mutates its links: callers must not modify it. A node sends to few
// destinations, so the source's list is searched in order.
func (c *Cluster) NetPath(src, dst *Node) []*flow.Link {
	if src == dst {
		return nil
	}
	for _, p := range src.netPaths {
		if p.dst == dst {
			return p.links
		}
	}
	links := []*flow.Link{src.NICOut, c.Fabric, dst.NICIn}
	src.netPaths = append(src.netPaths, netPath{dst, links})
	return links
}

// RemoteReadPath returns the path for reading from server's disk into
// client's memory across the network.
func (c *Cluster) RemoteReadPath(server, client *Node) []*flow.Link {
	if server == client {
		return []*flow.Link{server.Disk}
	}
	return []*flow.Link{server.Disk, server.NICOut, c.Fabric, client.NICIn}
}

// RemoteWritePath returns the path for writing from client's memory to
// server's disk across the network.
func (c *Cluster) RemoteWritePath(client, server *Node) []*flow.Link {
	if server == client {
		return []*flow.Link{server.Disk}
	}
	return []*flow.Link{client.NICOut, c.Fabric, server.NICIn, server.Disk}
}

// Transfer performs a blocking network transfer of size bytes from src to
// dst, paying one network latency up front.
func (c *Cluster) Transfer(p *sim.Proc, src, dst *Node, size float64, tag flow.Tag) {
	if src != dst {
		p.Sleep(c.P.NetLatency)
	}
	c.Net.Transfer(p, c.NetPath(src, dst), size, tag)
}

// TransferFlow starts an asynchronous network transfer and returns its flow.
func (c *Cluster) TransferFlow(src, dst *Node, size float64, tag flow.Tag, onDone func()) *flow.Flow {
	f := &flow.Flow{Links: c.NetPath(src, dst), Size: size, Tag: tag, OnDone: onDone}
	c.Net.Start(f)
	return f
}

// DiskIO performs a blocking local disk read or write of size bytes,
// paying one disk access latency up front.
func (c *Cluster) DiskIO(p *sim.Proc, node *Node, size float64, tag flow.Tag) {
	p.Sleep(c.P.DiskLatency)
	c.Net.Transfer(p, node.diskPath, size, tag)
}

// ControlRTT models one small control-message round trip between nodes.
func (c *Cluster) ControlRTT(p *sim.Proc) {
	p.Sleep(2 * c.P.NetLatency)
}
