package rpc

// CRCOut reports whether p's outbound frames carry CRC trailers, for the
// external tests that drive a peer over a fault.Conn.
func CRCOut(p *Peer) bool { return p.crcOut.Load() }

// serve1 installs one method on p, as Handle does for a raw Handler.
func serve1(p *Peer, method string, m Method) { p.Serve(map[string]Method{method: m}) }
