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
// Allocation model. Set-up costs what a run uses: the first message
// from a source builds its O(n) route row (one flat link array plus
// offsets), and a multicast folds its paths into a pooled, pointer-free
// tree of one node per link. Everything scheduled per message is
// recycled: message copies come from a msg.Pool (returned when the
// receiving handler is done, see Handler), and deliveries, unicast hops,
// multicast tree walks and delayed sends are pooled netOp records whose
// closure is bound once. Steady-state traffic therefore allocates nothing.
package interconnect

import (
	"fmt"
	"slices"
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
// network: the handler table, the route rows, plus the per-link
// transmission state. The link arrays are written without locks, which
// is safe because each link is touched only by the island owning its
// tail actor (links are reserved by the event executing at their tail).
type shared struct {
	handlers map[msg.Port]Handler
	nextFree []sim.Time
	routes   []atomic.Pointer[route] // per source, built on first use
	linkTail []int32                 // actor transmitting on each link
	linkHead []int32                 // actor receiving from each link
	views    []*Network              // per-island views, indexed by island
	islandOf []int32                 // actor -> island; nil = single view
}

// route is one source's routes: the path to node d is
// links[off[d]:off[d+1]] (link IDs as int32), immutable once published.
type route struct {
	links []int32
	off   []int32
}

func (r *route) to(dst msg.NodeID) []int32 {
	return r.links[r.off[dst]:r.off[dst+1]]
}

// stamp is per-link scratch, valid while gen is its view's current one:
// a link's tree node in a multicast fold, its predecessor in a route build.
type stamp struct {
	gen uint32
	val int32
}

// Network delivers messages between registered ports over a topology.
// A Network is one island's view of the fabric: it owns the message
// pool, callback free lists, traffic shard, observer and fold scratch of
// that island, while route rows and link state live in the shared
// fabric. A network built by New is a complete single-view fabric;
// Split adds views for parallel island execution.
type Network struct {
	kernel  *sim.Kernel
	topo    topology.Topology
	cfg     Config
	traffic *stats.Traffic
	sh      *shared
	sent    uint64

	pool    msg.Pool
	freeOps *netOp
	freeMcs *mcast
	marks   []stamp // per link, allocated on first use
	gen     uint32
	buf     []topology.LinkID // route-build scratch

	// obs receives per-link-traversal events when it subscribes to
	// NetworkHop; otherwise the message path pays one mask test.
	obs stats.Observer
}

// New builds a network. traffic may be nil to skip accounting.
func New(k *sim.Kernel, topo topology.Topology, cfg Config, traffic *stats.Traffic) *Network {
	if cfg.LinkLatency <= 0 {
		panic("interconnect: LinkLatency must be positive")
	}
	nl := topo.NumLinks()
	sh := &shared{
		handlers: make(map[msg.Port]Handler),
		nextFree: make([]sim.Time, nl),
		routes:   make([]atomic.Pointer[route], topo.Nodes()),
		linkTail: make([]int32, nl),
		linkHead: make([]int32, nl),
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
	}
	sh.views = []*Network{n}
	return n
}

// Split partitions the fabric into island views. View 0 is the
// receiver (which must have been built on kernels[0]); each additional
// view shares the route rows and link state but owns its island's
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

// serialization returns the time the message occupies one link.
func (n *Network) serialization(bytes int) sim.Time {
	if n.cfg.LinkBandwidth <= 0 {
		return 0
	}
	ps := float64(bytes) / n.cfg.LinkBandwidth * 1e12
	return sim.Time(ps + 0.5)
}

// route returns src's route row, building it on first use. Island views
// share rows: two views racing to build one row build identical
// contents, and the loser adopts the published winner.
func (n *Network) route(src msg.NodeID) *route {
	slot := &n.sh.routes[src]
	if r := slot.Load(); r != nil {
		return r
	}
	slot.CompareAndSwap(nil, n.buildRoute(src))
	return slot.Load()
}

// buildRoute tabulates the paths from src to every node, at their exact
// size. It enforces the prefix closure the link-keyed multicast tree
// relies on: among one source's paths, every link is entered from the
// same predecessor link (or is always a first hop).
func (n *Network) buildRoute(src msg.NodeID) *route {
	nodes := n.topo.Nodes()
	off := make([]int32, nodes+1)
	buf := n.buf[:0]
	gen := n.nextGen()
	for d := 0; d < nodes; d++ {
		start := len(buf)
		buf = n.topo.Path(buf, src, msg.NodeID(d))
		pred := int32(-1)
		for _, l := range buf[start:] {
			if mk := n.marks[l]; mk.gen == gen && mk.val != pred {
				panic(fmt.Sprintf("interconnect: %s routing is not prefix-closed: path %d->%d enters link %d from link %d, an earlier hop from link %d (-1 = the source)",
					n.topo.Name(), src, d, l, pred, mk.val))
			}
			n.marks[l] = stamp{gen, pred}
			pred = int32(l)
		}
		off[d+1] = int32(len(buf))
	}
	n.buf = buf
	links := make([]int32, len(buf))
	for i, l := range buf {
		links[i] = int32(l)
	}
	return &route{links: links, off: off}
}

// nextGen starts a new stamp generation, invalidating every mark.
func (n *Network) nextGen() uint32 {
	if n.gen++; n.gen == 0 || n.marks == nil {
		n.gen = 1 // first use, or the counter wrapped: start from clean marks
		n.marks = make([]stamp, n.topo.NumLinks())
	}
	return n.gen
}

// netOp is a pooled callback record for everything the network schedules
// on the kernel. Its fire closure is bound once when the record is first
// allocated, so rescheduling recycled records is allocation-free.
type netOp struct {
	n      *Network
	kind   uint8
	node   int32 // first of the sibling tree nodes an opWalk walks
	m      *msg.Message
	h      Handler
	path   []int32
	mc     *mcast
	dsts   []msg.Port
	t, ser sim.Time
	fire   func()
	next   *netOp
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
	op.m, op.h, op.path, op.mc, op.dsts = nil, nil, nil, nil, nil
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
	path, node, mc, dsts := op.path, op.node, op.mc, op.dsts
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
		n.walk(mc, node, t, ser)
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

// reserve claims link for a message head arriving at time t and returns
// the head's arrival at the far end; the link stays busy for ser.
func (n *Network) reserve(link int32, m *msg.Message, t, ser sim.Time) sim.Time {
	d := t
	if n.cfg.LinkBandwidth > 0 {
		d = max(t, n.sh.nextFree[link])
		n.sh.nextFree[link] = d + ser
	}
	if n.obs.Kinds.Has(stats.NetworkHop) {
		n.obs.On(stats.Event{Kind: stats.NetworkHop, At: d, Node: link, N: int32(m.Bytes()), Cat: m.Cat})
	}
	return d + n.cfg.LinkLatency
}

// hop advances a unicast message across path[0] at time t and chains the
// remaining hops; the final hop schedules delivery of the tail.
func (n *Network) hop(m *msg.Message, path []int32, t, ser sim.Time) {
	arrival := n.reserve(path[0], m, t, ser)
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

// mcNode is one edge of a multicast routing tree. Its children and
// destinations are chained in fold order by index, -1 ending a chain.
type mcNode struct {
	link, sib      int32 // the edge's link; next sibling
	child, last    int32 // first and last child
	dest, destLast int32 // first and last destination, indexes into dsts
}

// mcast tracks one in-flight multicast: the template message, its
// routing tree and the count of tree edges not yet walked. tree[0] is a
// sentinel whose children are the root edges, and the other nodes are
// kept in fold order. When the last edge is walked every destination has
// its own copy, so the template and the tree are recycled. The edge
// count is decremented atomically because subtrees of one multicast may
// be walked concurrently on different islands; all other fields are
// written before the first walk and read-only afterwards.
type mcast struct {
	m     *msg.Message
	edges int32
	tree  []mcNode
	dsts  []msg.Port
	dnext []int32 // next destination on the same edge
	next  *mcast
}

// getMcast returns an empty multicast sized for a dsts-way broadcast.
func (n *Network) getMcast(dsts int) *mcast {
	mc := n.freeMcs
	if mc == nil {
		mc = &mcast{}
	} else {
		n.freeMcs = mc.next
	}
	mc.tree = append(slices.Grow(mc.tree[:0], dsts+1), mcNode{child: -1, dest: -1})
	mc.dsts = slices.Grow(mc.dsts[:0], dsts)
	mc.dnext = slices.Grow(mc.dnext[:0], dsts)
	return mc
}

func (n *Network) putMcast(mc *mcast) {
	mc.m = nil
	mc.next = n.freeMcs
	n.freeMcs = mc
}

// add appends a node for link l as parent's last child.
func (mc *mcast) add(parent, l int32) int32 {
	i := int32(len(mc.tree))
	mc.tree = append(mc.tree, mcNode{link: l, child: -1, sib: -1, dest: -1})
	if p := &mc.tree[parent]; p.child < 0 {
		p.child, p.last = i, i
	} else {
		mc.tree[p.last].sib, p.last = i, i
	}
	return i
}

// addDest appends dst to the destinations reached over node at.
func (mc *mcast) addDest(at int32, dst msg.Port) {
	j := int32(len(mc.dsts))
	mc.dsts = append(mc.dsts, dst)
	mc.dnext = append(mc.dnext, -1)
	if nd := &mc.tree[at]; nd.dest < 0 {
		nd.dest, nd.destLast = j, j
	} else {
		mc.dnext[nd.destLast], nd.destLast = j, j
	}
}

// walk reserves the sibling edges chained from first at time t,
// schedules deliveries for destinations reached, and chains child edges
// at the head's arrival. Each edge of the tree is reserved in exactly
// one event, in arrival order, which keeps links work-conserving FIFOs.
// Walking the last edge recycles the multicast.
func (n *Network) walk(mc *mcast, first int32, t, ser sim.Time) {
	m := mc.m
	walked := int32(0)
	for i := first; i >= 0; i = mc.tree[i].sib {
		nd := &mc.tree[i]
		arrival := n.reserve(nd.link, m, t, ser)
		for j := nd.dest; j >= 0; j = mc.dnext[j] {
			cp := n.CloneMessage(m)
			cp.Dst = mc.dsts[j]
			n.deliver(cp, arrival+ser) // tail arrives one serialization later
		}
		if nd.child >= 0 {
			// Child edges all emanate from this link's head vertex.
			next := n.sh.linkHead[nd.link]
			op := n.getOp()
			op.n = n.viewFor(next)
			op.kind, op.mc, op.node, op.t, op.ser = opWalk, mc, nd.child, arrival, ser
			n.kernel.ScheduleExec(next, arrival, op.fire)
		}
		walked++
	}
	// The island walking the last edge recycles the multicast into its
	// own free lists; the template message and tree migrate with it.
	if atomic.AddInt32(&mc.edges, -walked) == 0 {
		n.pool.Put(mc.m)
		n.putMcast(mc)
	}
}

// Send delivers m to m.Dst, taking ownership of m. Same-node delivery
// bypasses the fabric and costs no interconnect bandwidth.
func (n *Network) Send(m *msg.Message) {
	now := n.kernel.Now()
	path := n.route(m.Src.Node).to(m.Dst.Node)
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
	r := n.route(m.Src.Node)
	mc := n.getMcast(len(dsts))
	gen := n.nextGen()
	for _, dst := range dsts {
		path := r.to(dst.Node)
		if len(path) == 0 {
			cp := n.CloneMessage(m)
			cp.Dst = dst
			n.deliver(cp, now+n.cfg.LocalLatency)
			continue
		}
		// Fold the path into the tree, one node per link. By prefix
		// closure the links before the last one already in the tree are
		// all in it, so only the links after it are new.
		at, j := int32(0), len(path)
		for j > 0 && n.marks[path[j-1]].gen != gen {
			j--
		}
		if j > 0 {
			at = n.marks[path[j-1]].val
		}
		for _, l := range path[j:] {
			at = mc.add(at, l)
			n.marks[l] = stamp{gen, at}
		}
		mc.addDest(at, dst)
	}
	edges := len(mc.tree) - 1
	if edges == 0 {
		n.pool.Put(m)
		n.putMcast(mc)
		return
	}
	mc.m = m
	mc.edges = int32(edges)
	if n.traffic != nil {
		n.traffic.Record(m, edges)
	}
	n.walk(mc, mc.tree[0].child, now, n.serialization(m.Bytes()))
}

// MulticastAfter schedules Multicast(m, dsts) after delay, without
// allocating a closure. The caller must not mutate dsts afterwards.
func (n *Network) MulticastAfter(m *msg.Message, dsts []msg.Port, delay sim.Time) {
	op := n.getOp()
	op.kind, op.m, op.dsts = opMulticast, m, dsts
	n.kernel.After(delay, op.fire)
}
