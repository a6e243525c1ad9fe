// Package msg defines the coherence-message vocabulary shared by every
// protocol in the simulator: node/unit addressing, block naming, message
// kinds, wire sizes, and traffic categories. It also holds the two
// containers protocols index by these names: NodeSet, a set of node IDs,
// and Table, the block-keyed store every component keeps its per-block
// state in.
//
// The paper's protocols exchange 8-byte control messages and 72-byte data
// messages (8-byte header + 64-byte cache block). Every protocol package
// builds its messages from the kinds declared here so that the traffic
// accounting in package stats can classify them uniformly.
package msg

import "fmt"

// NodeID identifies one highly-integrated node (processor + caches +
// memory controller + coherence controllers), 0..N-1.
type NodeID int32

// Unit selects a controller within a node.
type Unit uint8

const (
	// UnitCache is the node's cache coherence controller.
	UnitCache Unit = iota
	// UnitMem is the node's memory controller (home for an address slice).
	UnitMem
	// UnitArbiter is the persistent-request arbiter co-located with the
	// home memory controller (Token Coherence only).
	UnitArbiter
	// UnitProc is the processor-side port, used only for completion
	// notifications in tests.
	UnitProc

	// NumUnits is the number of controller units a node has.
	NumUnits = iota
)

func (u Unit) String() string {
	switch u {
	case UnitCache:
		return "cache"
	case UnitMem:
		return "mem"
	case UnitArbiter:
		return "arbiter"
	case UnitProc:
		return "proc"
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// Port addresses one controller in the system.
type Port struct {
	Node NodeID
	Unit Unit
}

func (p Port) String() string { return fmt.Sprintf("%v@%d", p.Unit, p.Node) }

// Addr is a physical byte address.
type Addr uint64

// Block is a cache-block number (Addr >> BlockShift).
type Block uint64

// Cache-block geometry (Table 1: 64-byte blocks).
const (
	BlockShift = 6
	BlockSize  = 1 << BlockShift
)

// BlockOf returns the block containing a.
func BlockOf(a Addr) Block { return Block(a >> BlockShift) }

// Base returns the first byte address of the block.
func (b Block) Base() Addr { return Addr(b) << BlockShift }

// HomeOf returns the node whose memory controller is home for block b in
// an n-node system (block-interleaved, as in the Alpha 21364 and Origin).
func HomeOf(b Block, n int) NodeID { return NodeID(uint64(b) % uint64(n)) }

// Wire sizes (paper §5.1): "All request, acknowledgment, invalidation,
// and dataless token messages are 8 bytes in size ...; data messages
// include this 8 byte header and 64 bytes of data."
const (
	ControlBytes = 8
	DataBytes    = ControlBytes + BlockSize // 72
)

// Kind enumerates every message type used by the four protocols. Keeping
// them in one enum lets the network and statistics layers stay
// protocol-agnostic.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Transient/ordinary requests (all protocols).
	KindGetS // request read permission
	KindGetM // request write permission

	// Responses and token carriers.
	KindData    // data (+ tokens for Token Coherence)
	KindTokens  // dataless token transfer (Token Coherence)
	KindAck     // invalidation acknowledgment / probe ack
	KindInv     // invalidation (directory)
	KindFwdGetS // forwarded GetS (directory)
	KindFwdGetM // forwarded GetM (directory)

	// Writebacks.
	KindPutM      // writeback of owned/modified data
	KindWBAck     // writeback acknowledgment
	KindWBStale   // writeback arrived stale; drop without writing
	KindUnblock   // transaction-complete notification to home
	KindMemData   // data from memory (hammer: parallel DRAM fetch)
	KindProbe     // broadcast probe (hammer)
	KindProbeAck  // probe miss acknowledgment (hammer)
	KindProbeData // probe hit: data to requester (hammer)

	// Persistent requests (Token Coherence correctness substrate).
	KindPersistentReq           // starving processor -> home arbiter
	KindPersistentActivate      // arbiter -> all nodes
	KindPersistentActivateAck   // node -> arbiter
	KindPersistentDeactivate    // arbiter -> all nodes
	KindPersistentDeactivateAck // node -> arbiter

	// Hierarchical coherence (two-level directory authority tier).
	KindAuthReq   // cluster home -> global authority: request block authority
	KindAuthGrant // global authority -> cluster home: authority + current data
	KindRecall    // global authority -> holding cluster home: give authority back
	KindRecallAck // cluster home -> global authority: authority + data returned
)

func (k Kind) String() string {
	switch k {
	case KindGetS:
		return "GetS"
	case KindGetM:
		return "GetM"
	case KindData:
		return "Data"
	case KindTokens:
		return "Tokens"
	case KindAck:
		return "Ack"
	case KindInv:
		return "Inv"
	case KindFwdGetS:
		return "FwdGetS"
	case KindFwdGetM:
		return "FwdGetM"
	case KindPutM:
		return "PutM"
	case KindWBAck:
		return "WBAck"
	case KindWBStale:
		return "WBStale"
	case KindUnblock:
		return "Unblock"
	case KindMemData:
		return "MemData"
	case KindProbe:
		return "Probe"
	case KindProbeAck:
		return "ProbeAck"
	case KindProbeData:
		return "ProbeData"
	case KindPersistentReq:
		return "PersistentReq"
	case KindPersistentActivate:
		return "PersistentActivate"
	case KindPersistentActivateAck:
		return "PersistentActivateAck"
	case KindPersistentDeactivate:
		return "PersistentDeactivate"
	case KindPersistentDeactivateAck:
		return "PersistentDeactivateAck"
	case KindAuthReq:
		return "AuthReq"
	case KindAuthGrant:
		return "AuthGrant"
	case KindRecall:
		return "Recall"
	case KindRecallAck:
		return "RecallAck"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Category classifies messages for the traffic breakdowns in Figures 4b
// and 5b.
type Category uint8

const (
	// CatRequest covers first-issue transient requests, directory
	// requests, forwarded requests and invalidations.
	CatRequest Category = iota
	// CatReissue covers reissued transient requests and all persistent
	// request machinery (Token Coherence only).
	CatReissue
	// CatControl covers other non-data messages: acknowledgments,
	// dataless token transfers, unblocks, writeback acks.
	CatControl
	// CatData covers data responses and writebacks.
	CatData
	numCategories = 4
)

// NumCategories is the number of traffic categories.
const NumCategories = int(numCategories)

func (c Category) String() string {
	switch c {
	case CatRequest:
		return "requests"
	case CatReissue:
		return "reissues+persistent"
	case CatControl:
		return "other-control"
	case CatData:
		return "data"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Slug returns the category's identifier-safe short name, used to build
// per-category metric names like "bytes_request".
func (c Category) Slug() string {
	switch c {
	case CatRequest:
		return "request"
	case CatReissue:
		return "reissue"
	case CatControl:
		return "control"
	case CatData:
		return "data"
	}
	return fmt.Sprintf("category%d", uint8(c))
}

// Message is one coherence message, passed by value. Send and Multicast
// copy it into the network, and each destination receives its own copy.
// A handler's *Message is valid only during Handle: the handler may read
// and mutate it freely, and a receiver that keeps a message stores a copy
// of the value.
type Message struct {
	Kind Kind
	Cat  Category

	// Owner, HasData and Dirty sit beside Kind and Cat so that the
	// message packs into 72 bytes.
	//
	// Owner marks the owner token among the Tokens carried.
	Owner bool
	// HasData marks a 72-byte message carrying the cache block.
	HasData bool
	// Dirty marks data that has been modified relative to memory, so
	// migratory-sharing grants can be detected by the receiver.
	Dirty bool

	Src  Port
	Dst  Port
	Addr Addr

	// Requester is the port that should receive the eventual response
	// (used by forwarded requests, probes and persistent activations).
	Requester Port

	// Tokens and Owner implement the token-counting substrate: Tokens is
	// the number of tokens carried (including the owner token when Owner
	// is set). Non-token protocols leave these zero.
	Tokens int

	// Data is the block payload, modelled as a write-version number so
	// the safety oracle can detect stale reads.
	Data uint64

	// Acks is the number of acknowledgments the requester must collect
	// (directory protocol), or a generic small counter.
	Acks int

	// Seq carries a protocol-defined sequence number (persistent request
	// identifiers, snooping order tags in tests).
	Seq uint64
}

// Bytes reports the wire size of the message.
func (m *Message) Bytes() int {
	if m.HasData {
		return DataBytes
	}
	return ControlBytes
}

func (m *Message) String() string {
	s := fmt.Sprintf("%v %v->%v blk=%d", m.Kind, m.Src, m.Dst, BlockOf(m.Addr))
	if m.Tokens > 0 {
		s += fmt.Sprintf(" tok=%d", m.Tokens)
		if m.Owner {
			s += "+O"
		}
	}
	if m.HasData {
		s += fmt.Sprintf(" data=v%d", m.Data)
	}
	return s
}
