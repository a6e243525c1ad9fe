// Package core implements Token Coherence (Martin, Hill & Wood, ISCA
// 2003): the correctness substrate that enforces safety by token
// counting and prevents starvation with persistent requests, and the
// TokenB performance protocol that broadcasts unordered transient
// requests.
//
// # Correctness substrate
//
// Every block has exactly T tokens (Config.TokensPerBlock), one of which
// is the owner token. The substrate maintains the paper's optimized
// invariants:
//
//	#1' Each block has T tokens in the system, one of them the owner.
//	#2' A processor may write a block only holding all T tokens.
//	#3' A processor may read a block only holding >=1 token and valid data.
//	#4' A message carrying the owner token must carry data.
//
// The Ledger audits these invariants at runtime: token sends and
// receives are counted per block, so created/destroyed tokens, negative
// in-flight counts, or owner tokens travelling without data are detected
// immediately, and an end-of-run audit checks global conservation.
//
// A cache (TokenB) and a home memory (Memory) are both token holders,
// and they share one holder: the ledger, the island's network view and
// the port through which every token leaves, whether sent, forwarded to
// a persistent requester or acknowledged to an arbiter. Both answer a
// transient request by the same rule (answer): a GetS takes one plain
// token and the data from the owner, or the owner token when it is the
// last one; a GetM takes every token. Only the cache adds the
// migratory-sharing hand-over, and only the latencies differ.
//
// Starvation freedom comes from persistent requests: a processor that
// has reissued its transient request MaxReissues times invokes a
// persistent request at the block's home arbiter. The arbiter activates
// at most one persistent request at a time, informing every node; nodes
// acknowledge, record the activation in a table, and forward all present
// and future tokens for the block to the starving processor until the
// processor deactivates the request.
//
// # TokenB performance protocol
//
// TokenB broadcasts transient GetS/GetM requests to all other nodes and
// the home memory, responds like a MOSI snooping protocol (with the
// migratory-sharing optimization), and reissues requests after an
// adaptive timeout (twice the recent average miss latency plus a
// randomized exponential backoff).
//
// The package also provides TokenD and TokenM, two further performance
// protocols the paper sketches in Section 7, demonstrating that the
// substrate admits multiple performance policies unchanged. The design
// space is open: WithPolicy raises any user-written Policy to a complete
// protocol on the unmodified substrate, and internal/registry publishes
// such policies by name so the engine can run them like the built-ins.
package core
