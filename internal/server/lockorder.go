// Lock hierarchy of the BeSS server.
//
// A lock's place in the hierarchy is the rank its Init call names —
// mu.Init("Type.field", rank) — and that is the only place it is written.
// internal/lockcheck is its one checker: under the `invariants` build tag
// every acquisition is checked against the locks its goroutine holds. Lower
// rank = acquired earlier (outermost): a goroutine holding a may acquire b
// only if rank(a) < rank(b), and locks of equal rank must not nest at all.
// Rank 0 (area.Area.mu, the scan table, the shared cache's SMT lock) is
// unranked: no ordering constraint, still checked for recursive acquisition
// at runtime.
//
// The constants live beside the locks they rank, in nine packages (none of
// which can import server): `grep -rn 'lockcheck.Rank = ' internal` prints
// the whole order. What the numbers cannot say is why:
//
// lock.Manager.mu (20) is never held across a callback, so a node server's
// holder table never nests in its server's.
//
// The rpc.Peer locks rank below (outside) every server lock: a dispatch
// handler holds Peer.mu briefly before touching server state, and the
// coalescing writer takes Peer.wmu when a reply goes out — but no code path
// may send or match RPC traffic while holding server state locks, which is
// exactly the nesting the low ranks forbid. The multiversion lock ranks
// where its real nesting demands: VersionStore.mu, which also guards the
// snapshot registry, sits innermost but for Log.mu — commit hooks publish
// staged versions while the committing transaction still holds everything
// else.
//
// client.Session.mu ranks inside every lock a call of its Conn takes, the
// server's and the rpc.Peer's (65): a session never holds it across a call,
// so a callback, which takes it on whatever goroutine delivers it, never
// waits on a call of the session's own.
//
// The shared-memory cache (internal/shm) is outside the server but in the
// same order. A slot latch ranks outermost of all (1, below the rpc.Peer
// locks): a flush writes the slot back through the node server's upstream
// connection while it holds the latch. Process.mu, cache.Pool.mu and
// vmem.Space.mu rank innermost (70, 75, 80): leaves a latch holder's reads
// and writes take, which never nest with one another.
//
// The hot paths rely on these locks never actually nesting (each is
// released before the next is taken — see Server's doc comment); the
// hierarchy exists so that any future nesting some PR introduces is forced
// into one deadlock-free direction and mechanically verified.
package server

import "bess/internal/lockcheck"

const (
	rankAreaMu  lockcheck.Rank = 10
	rankCatalog lockcheck.Rank = 50
)
