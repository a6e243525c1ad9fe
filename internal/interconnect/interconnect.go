// Package interconnect models message timing on a topology: per-link
// cut-through serialization, work-conserving FIFO contention, and
// bandwidth-efficient tree multicast.
//
// Timing model. A message travels hop by hop: when its head reaches a
// link it departs at d = max(arrival, link free time), the link is then
// busy for the serialization time (bytes/bandwidth), and the head
// reaches the next vertex after the link latency. Delivery happens when
// the tail arrives — one serialization time after the head (cut-through
// charges serialization once on the critical path, while every crossed
// link still pays the bandwidth cost). Because links are reserved when
// the message actually arrives at them, the fabric is work-conserving.
//
// A multicast follows the deterministic-routing tree: the message is
// replicated at each branching vertex in a single simulation event, and
// each tree edge is charged exactly once, matching the paper's
// "bandwidth-efficient tree-based multicast routing". Atomic per-vertex
// replication also gives the indirect tree topology its total order of
// broadcasts: every broadcast claims the root's output links in one
// event, so all nodes observe all broadcasts in the same order — the
// property traditional snooping requires.
//
// Allocation model. The network is on the simulator's innermost loop,
// so everything it schedules per message is recycled: message copies
// come from a msg.Pool (returned when the receiving handler is done,
// see Handler), and the callbacks for deliveries, unicast hops,
// multicast tree walks and delayed sends are pooled netOp records whose
// closure is bound once. Steady-state traffic therefore allocates
// nothing.
package interconnect

import (
	"fmt"
	"sync/atomic"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

// Config sets the link parameters (Table 1: 3.2 GB/s links, 15 ns
// latency including wire, synchronization and routing).
type Config struct {
	// LinkBandwidth in bytes per second; 0 means unlimited (no
	// serialization delay and no contention).
	LinkBandwidth float64
	// LinkLatency is the per-hop latency.
	LinkLatency sim.Time
	// LocalLatency is the delivery latency between units on the same
	// node (no interconnect crossing).
	LocalLatency sim.Time
}

// DefaultConfig returns the paper's interconnect parameters.
func DefaultConfig() Config {
	return Config{
		LinkBandwidth: 3.2e9,
		LinkLatency:   15 * sim.Nanosecond,
		LocalLatency:  1 * sim.Nanosecond,
	}
}

// Unlimited returns a copy of c with infinite bandwidth, used for the
// paper's unlimited-bandwidth runtime bars.
func (c Config) Unlimited() Config {
	c.LinkBandwidth = 0
	return c
}

// Handler consumes delivered messages. The delivered message is owned by
// the network: it may be read and mutated freely during Handle, but it is
// recycled when Handle returns. A handler that keeps the message past its
// return must call Message.Retain and later hand it to Network.FreeMessage.
type Handler interface {
	Handle(m *msg.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m *msg.Message)

// Handle calls f(m).
func (f HandlerFunc) Handle(m *msg.Message) { f(m) }

// shared is the fabric state common to every island view of one
// network: the immutable routing/handler tables, plus the per-link
// transmission state. The link arrays are written without locks, which
// is safe because each link is touched only by the island owning its
// tail actor (links are reserved by the event executing at their tail).
type shared struct {
	handlers  map[msg.Port]Handler
	nextFree  []sim.Time
	linkBytes []uint64
	paths     [][]topology.LinkID // deterministic routes, per (src, dst)
	linkTail  []int32             // actor transmitting on each link
	linkHead  []int32             // actor receiving from each link
	views     []*Network          // per-island views, indexed by island
	islandOf  []int32             // actor -> island; nil = single view
}

// Network delivers messages between registered ports over a topology.
// A Network is one island's view of the fabric: it owns the message
// pool, callback free lists, traffic shard and observer of that island,
// while routing tables and link state live in the shared fabric. A
// network built by New is a complete single-view fabric; Split adds
// views for parallel island execution.
type Network struct {
	kernel  *sim.Kernel
	topo    topology.Topology
	cfg     Config
	traffic *stats.Traffic
	sh      *shared
	sent    uint64

	nodes   int // topo.Nodes(), for path-cache indexing
	pool    msg.Pool
	freeOps *netOp
	freeMcs *mcast

	// obs receives per-link-traversal events when it subscribes to
	// NetworkHop; otherwise the message path pays one mask test.
	obs stats.Observer
}

// New builds a network. traffic may be nil to skip accounting.
func New(k *sim.Kernel, topo topology.Topology, cfg Config, traffic *stats.Traffic) *Network {
	if cfg.LinkLatency <= 0 {
		panic("interconnect: LinkLatency must be positive")
	}
	nn := topo.Nodes()
	nl := topo.NumLinks()
	sh := &shared{
		handlers:  make(map[msg.Port]Handler),
		nextFree:  make([]sim.Time, nl),
		linkBytes: make([]uint64, nl),
		paths:     make([][]topology.LinkID, nn*nn),
		linkTail:  make([]int32, nl),
		linkHead:  make([]int32, nl),
	}
	for s := 0; s < nn; s++ {
		for d := 0; d < nn; d++ {
			sh.paths[s*nn+d] = topo.Path(msg.NodeID(s), msg.NodeID(d))
		}
	}
	// Link ownership doubles as the execution-actor context for event
	// stamping, so it is wired whenever the topology describes it —
	// even single-island runs use it, keeping event stamps identical
	// at any island count.
	if pt, ok := topo.(topology.Partitioned); ok {
		for l := 0; l < nl; l++ {
			sh.linkTail[l] = int32(pt.LinkTail(topology.LinkID(l)))
			sh.linkHead[l] = int32(pt.LinkHead(topology.LinkID(l)))
		}
	}
	n := &Network{
		kernel:  k,
		topo:    topo,
		cfg:     cfg,
		traffic: traffic,
		sh:      sh,
		nodes:   nn,
	}
	sh.views = []*Network{n}
	return n
}

// Split partitions the fabric into island views. View 0 is the
// receiver (which must have been built on kernels[0]); each additional
// view shares the routing tables and link state but owns its island's
// kernel, message pool, callback free lists and traffic shard.
// islandOf maps every actor (see topology.Partitioned) to its island.
func (n *Network) Split(islandOf []int32, kernels []*sim.Kernel, traffics []*stats.Traffic) []*Network {
	sh := n.sh
	sh.islandOf = islandOf
	sh.views = make([]*Network, len(kernels))
	sh.views[0] = n
	n.traffic = traffics[0]
	for i := 1; i < len(kernels); i++ {
		sh.views[i] = &Network{
			kernel:  kernels[i],
			topo:    n.topo,
			cfg:     n.cfg,
			traffic: traffics[i],
			sh:      sh,
			nodes:   n.nodes,
		}
	}
	return sh.views
}

// viewFor returns the view of the island owning actor a.
func (n *Network) viewFor(a int32) *Network {
	if n.sh.islandOf == nil {
		return n
	}
	return n.sh.views[n.sh.islandOf[a]]
}

// Topology exposes the underlying fabric.
func (n *Network) Topology() topology.Topology { return n.topo }

// SetObserver attaches (or, with the zero Observer, clears) the observer
// that receives NetworkHop events. The machine layer calls this when
// probes attach.
func (n *Network) SetObserver(o stats.Observer) { n.obs = o }

// PublishMetrics registers the network's traffic accounting in ms: total
// and per-category interconnect bytes and link traversals, read from the
// same Traffic the run resets at the warmup boundary. It is a no-op for
// networks built without traffic accounting.
func (n *Network) PublishMetrics(ms *stats.MetricSet) {
	n.PublishMetricsFor(ms, n.traffic)
}

// PublishMetricsFor registers the traffic metrics reading from tr
// rather than this view's shard. The machine passes the merged run's
// Traffic: island shards are folded into it after the run, before
// metrics are snapshotted.
func (n *Network) PublishMetricsFor(ms *stats.MetricSet, tr *stats.Traffic) {
	if tr == nil {
		return
	}
	ms.Derived(stats.Desc{
		Name: "bytes_total", Unit: "bytes", Fmt: "%.0f",
		Help: "interconnect bytes, weighted by links traversed",
	}, func() float64 { return float64(tr.TotalBytes()) })
	for c := 0; c < msg.NumCategories; c++ {
		cat := msg.Category(c)
		ms.Derived(stats.Desc{
			Name: "bytes_" + cat.Slug(), Unit: "bytes", Fmt: "%.0f",
			Help: "interconnect bytes in category " + cat.String(),
		}, func() float64 { return float64(tr.Bytes(cat)) })
	}
	for c := 0; c < msg.NumCategories; c++ {
		cat := msg.Category(c)
		ms.Derived(stats.Desc{
			Name: "msgs_" + cat.Slug(), Unit: "count", Fmt: "%.0f",
			Help: "link traversals by messages in category " + cat.String(),
		}, func() float64 { return float64(tr.Messages(cat)) })
	}
}

// Register attaches a handler to a port. Registering a port twice
// panics: it always indicates mis-wiring during system construction.
func (n *Network) Register(p msg.Port, h Handler) {
	if h == nil {
		panic("interconnect: Register with nil handler")
	}
	if _, dup := n.sh.handlers[p]; dup {
		panic(fmt.Sprintf("interconnect: port %v registered twice", p))
	}
	n.sh.handlers[p] = h
}

// Sent reports the number of message deliveries handled on this view's
// island.
func (n *Network) Sent() uint64 { return n.sent }

// NewMessage returns a zeroed message from the network's pool. Senders
// fill it and pass it to Send/Multicast, which take ownership.
func (n *Network) NewMessage() *msg.Message { return n.pool.Get() }

// CloneMessage returns a pooled copy of m (pool bookkeeping reset).
func (n *Network) CloneMessage(m *msg.Message) *msg.Message {
	return n.pool.Clone(m)
}

// FreeMessage recycles a message previously retained by a handler (or
// allocated with NewMessage and never sent).
func (n *Network) FreeMessage(m *msg.Message) { n.pool.Put(m) }

// path returns the precomputed deterministic route from src to dst.
func (n *Network) path(src, dst msg.NodeID) []topology.LinkID {
	return n.sh.paths[int(src)*n.nodes+int(dst)]
}

// serialization returns the time the message occupies one link.
func (n *Network) serialization(bytes int) sim.Time {
	if n.cfg.LinkBandwidth <= 0 {
		return 0
	}
	ps := float64(bytes) / n.cfg.LinkBandwidth * 1e12
	return sim.Time(ps + 0.5)
}

// netOp is a pooled callback record for everything the network schedules
// on the kernel. Its fire closure is bound once when the record is first
// allocated, so rescheduling recycled records is allocation-free.
type netOp struct {
	n     *Network
	kind  uint8
	m     *msg.Message
	h     Handler
	path  []topology.LinkID
	nodes []*mcNode
	mc    *mcast
	dsts  []msg.Port
	t     sim.Time
	ser   sim.Time
	fire  func()
	next  *netOp
}

const (
	opDeliver uint8 = iota
	opHop
	opWalk
	opSend
	opMulticast
)

func (n *Network) getOp() *netOp {
	op := n.freeOps
	if op == nil {
		op = &netOp{n: n}
		op.fire = op.run
	} else {
		n.freeOps = op.next
		op.n = n
	}
	return op
}

func (n *Network) putOp(op *netOp) {
	op.m, op.h, op.path, op.nodes, op.mc, op.dsts = nil, nil, nil, nil, nil, nil
	op.next = n.freeOps
	n.freeOps = op
}

// run dispatches a scheduled network operation. The record is recycled
// before the work runs so that nested scheduling can reuse it. Ops
// scheduled across islands carry the target island's view in op.n, so
// run executes entirely with island-local state (free lists, message
// pool, traffic shard, observer) of the island firing the event.
func (op *netOp) run() {
	n := op.n
	kind, m, h := op.kind, op.m, op.h
	path, nodes, mc, dsts := op.path, op.nodes, op.mc, op.dsts
	t, ser := op.t, op.ser
	n.putOp(op)
	switch kind {
	case opDeliver:
		n.sent++
		h.Handle(m)
		n.pool.Release(m)
	case opHop:
		n.hop(m, path, t, ser)
	case opWalk:
		n.walk(mc, nodes, t, ser)
	case opSend:
		n.Send(m)
	case opMulticast:
		n.Multicast(m, dsts)
	}
}

// deliver schedules the handler for m at time at. The message executes
// as (and on the island of) the destination node's actor. The network
// owns m until the handler returns (see Handler).
func (n *Network) deliver(m *msg.Message, at sim.Time) {
	h, ok := n.sh.handlers[m.Dst]
	if !ok {
		panic(fmt.Sprintf("interconnect: no handler for %v (message %v)", m.Dst, m))
	}
	dst := int32(m.Dst.Node)
	op := n.getOp()
	op.n = n.viewFor(dst)
	op.kind, op.m, op.h = opDeliver, m, h
	n.kernel.ScheduleExec(dst, at, op.fire)
}

// hop advances a unicast message across path[0] at time t and chains the
// remaining hops; the final hop schedules delivery of the tail.
func (n *Network) hop(m *msg.Message, path []topology.LinkID, t, ser sim.Time) {
	link := path[0]
	n.sh.linkBytes[link] += uint64(m.Bytes())
	d := t
	if n.cfg.LinkBandwidth > 0 {
		if free := n.sh.nextFree[link]; free > d {
			d = free
		}
		n.sh.nextFree[link] = d + ser
	}
	arrival := d + n.cfg.LinkLatency
	if n.obs.Kinds.Has(stats.NetworkHop) {
		n.obs.On(stats.Event{Kind: stats.NetworkHop, At: d, Node: int32(link), N: int32(m.Bytes()), Cat: m.Cat})
	}
	if len(path) == 1 {
		n.deliver(m, arrival+ser) // tail arrives one serialization later
		return
	}
	next := n.sh.linkTail[path[1]]
	op := n.getOp()
	op.n = n.viewFor(next)
	op.kind, op.m, op.path, op.t, op.ser = opHop, m, path[1:], arrival, ser
	n.kernel.ScheduleExec(next, arrival, op.fire)
}

// mcNode is one edge of a multicast routing tree. Nodes live in their
// mcast's slab and are recycled with it.
type mcNode struct {
	link     topology.LinkID
	children []*mcNode
	dests    []msg.Port // destinations whose path ends on this edge
}

// mcast tracks one in-flight multicast: the template message, the
// routing tree (slab-allocated), and the count of tree edges not yet
// walked. When the last edge is walked every destination has its own
// copy, so the template and the tree are recycled. The edge count is
// decremented atomically because subtrees of one multicast may be
// walked concurrently on different islands; all other fields are
// written before the first walk and read-only afterwards.
type mcast struct {
	m     *msg.Message
	edges int32
	slab  []mcNode
	roots []*mcNode
	paths [][]topology.LinkID
	dsts  []msg.Port
	next  *mcast
}

func (n *Network) getMcast() *mcast {
	mc := n.freeMcs
	if mc == nil {
		mc = &mcast{}
	} else {
		n.freeMcs = mc.next
	}
	mc.paths = mc.paths[:0]
	mc.dsts = mc.dsts[:0]
	mc.roots = mc.roots[:0]
	return mc
}

func (n *Network) putMcast(mc *mcast) {
	mc.m = nil
	mc.slab = mc.slab[:0]
	mc.next = n.freeMcs
	n.freeMcs = mc
}

// node takes the next tree node from the slab, keeping the capacity of
// its child/destination slices from earlier multicasts. The slab is
// pre-sized by Multicast, so taking never reallocates (which would
// invalidate earlier *mcNode pointers).
func (mc *mcast) node(l topology.LinkID) *mcNode {
	i := len(mc.slab)
	mc.slab = mc.slab[:i+1]
	nd := &mc.slab[i]
	nd.link = l
	nd.children = nd.children[:0]
	nd.dests = nd.dests[:0]
	return nd
}

// build folds the per-destination paths into their prefix tree.
// Deterministic routing guarantees prefix closure (verified by the
// topology tests), so paths sharing a link share the entire prefix.
func (mc *mcast) build() {
	for i, path := range mc.paths {
		level := &mc.roots
		var nd *mcNode
		for _, l := range path {
			nd = mc.findOrAdd(level, l)
			level = &nd.children
		}
		nd.dests = append(nd.dests, mc.dsts[i])
	}
	mc.edges = int32(len(mc.slab))
}

func (mc *mcast) findOrAdd(nodes *[]*mcNode, link topology.LinkID) *mcNode {
	for _, nd := range *nodes {
		if nd.link == link {
			return nd
		}
	}
	nd := mc.node(link)
	*nodes = append(*nodes, nd)
	return nd
}

// walk reserves the given edges at time t, schedules deliveries for
// destinations reached, and chains child edges at the head's arrival.
// Each edge of the tree is reserved in exactly one event, in arrival
// order, which keeps links work-conserving FIFOs. Walking the last edge
// recycles the multicast.
func (n *Network) walk(mc *mcast, nodes []*mcNode, t sim.Time, ser sim.Time) {
	m := mc.m
	for _, nd := range nodes {
		d := t
		n.sh.linkBytes[nd.link] += uint64(m.Bytes())
		if n.cfg.LinkBandwidth > 0 {
			if free := n.sh.nextFree[nd.link]; free > d {
				d = free
			}
			n.sh.nextFree[nd.link] = d + ser
		}
		arrival := d + n.cfg.LinkLatency
		if n.obs.Kinds.Has(stats.NetworkHop) {
			n.obs.On(stats.Event{Kind: stats.NetworkHop, At: d, Node: int32(nd.link), N: int32(m.Bytes()), Cat: m.Cat})
		}
		for _, dst := range nd.dests {
			cp := n.CloneMessage(m)
			cp.Dst = dst
			n.deliver(cp, arrival+ser) // tail arrives one serialization later
		}
		if len(nd.children) > 0 {
			// Child edges all emanate from this link's head vertex.
			next := n.sh.linkHead[nd.link]
			op := n.getOp()
			op.n = n.viewFor(next)
			op.kind, op.mc, op.nodes, op.t, op.ser = opWalk, mc, nd.children, arrival, ser
			n.kernel.ScheduleExec(next, arrival, op.fire)
		}
	}
	// The island walking the last edge recycles the multicast into its
	// own free lists; the template message and slab migrate with it.
	if atomic.AddInt32(&mc.edges, -int32(len(nodes))) == 0 {
		n.pool.Put(mc.m)
		n.putMcast(mc)
	}
}

// Send delivers m to m.Dst, taking ownership of m. Same-node delivery
// bypasses the fabric and costs no interconnect bandwidth.
func (n *Network) Send(m *msg.Message) {
	now := n.kernel.Now()
	path := n.path(m.Src.Node, m.Dst.Node)
	if len(path) == 0 {
		n.deliver(m, now+n.cfg.LocalLatency)
		return
	}
	if n.traffic != nil {
		n.traffic.Record(m, len(path))
	}
	n.hop(m, path, now, n.serialization(m.Bytes()))
}

// SendAfter schedules Send(m) after delay, without allocating a closure.
func (n *Network) SendAfter(m *msg.Message, delay sim.Time) {
	op := n.getOp()
	op.kind, op.m = opSend, m
	n.kernel.After(delay, op.fire)
}

// Multicast delivers a copy of m to every port in dsts, taking ownership
// of m. Bandwidth is charged once per multicast-tree edge; destinations
// on the source node receive a local delivery. The message's Dst field
// is set per copy.
func (n *Network) Multicast(m *msg.Message, dsts []msg.Port) {
	now := n.kernel.Now()
	mc := n.getMcast()
	need := 0
	for _, dst := range dsts {
		path := n.path(m.Src.Node, dst.Node)
		if len(path) == 0 {
			cp := n.CloneMessage(m)
			cp.Dst = dst
			n.deliver(cp, now+n.cfg.LocalLatency)
			continue
		}
		mc.paths = append(mc.paths, path)
		mc.dsts = append(mc.dsts, dst)
		need += len(path)
	}
	if len(mc.dsts) == 0 {
		n.pool.Put(m)
		n.putMcast(mc)
		return
	}
	if cap(mc.slab) < need {
		mc.slab = make([]mcNode, 0, need)
	}
	mc.m = m
	mc.build()
	if n.traffic != nil {
		n.traffic.Record(m, int(mc.edges))
	}
	n.walk(mc, mc.roots, now, n.serialization(m.Bytes()))
}

// MulticastAfter schedules Multicast(m, dsts) after delay, without
// allocating a closure. The caller must not mutate dsts afterwards.
func (n *Network) MulticastAfter(m *msg.Message, dsts []msg.Port, delay sim.Time) {
	op := n.getOp()
	op.kind, op.m, op.dsts = opMulticast, m, dsts
	n.kernel.After(delay, op.fire)
}

// LinkBytes reports the bytes that crossed each link, indexed by
// topology.LinkID. Useful for hotspot analysis: on the indirect tree the
// root links carry every broadcast, which is the central bottleneck the
// paper's evaluation exposes.
func (n *Network) LinkBytes() []uint64 {
	out := make([]uint64, len(n.sh.linkBytes))
	copy(out, n.sh.linkBytes)
	return out
}

// HottestLink returns the link that carried the most bytes.
func (n *Network) HottestLink() (topology.LinkID, uint64) {
	var best topology.LinkID
	var bytes uint64
	for l, b := range n.sh.linkBytes {
		if b > bytes {
			best, bytes = topology.LinkID(l), b
		}
	}
	return best, bytes
}

// Utilization reports a link's average utilization over elapsed time
// (0..1; 0 when bandwidth is unlimited or elapsed is zero).
func (n *Network) Utilization(l topology.LinkID, elapsed sim.Time) float64 {
	if n.cfg.LinkBandwidth <= 0 || elapsed <= 0 {
		return 0
	}
	seconds := float64(elapsed) / 1e12
	return float64(n.sh.linkBytes[l]) / (n.cfg.LinkBandwidth * seconds)
}

// UnicastLatency estimates the uncontended delivery time from src to dst
// for a message of the given size; used by controllers to size timeout
// intervals and by tests.
func (n *Network) UnicastLatency(src, dst msg.NodeID, bytes int) sim.Time {
	path := n.path(src, dst)
	if len(path) == 0 {
		return n.cfg.LocalLatency
	}
	return sim.Time(len(path))*n.cfg.LinkLatency + n.serialization(bytes)
}
