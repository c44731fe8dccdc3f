package rpc

// CRCOut reports whether p's outbound frames carry CRC trailers, for the
// external tests that drive a peer over a fault.Conn.
func CRCOut(p *Peer) bool { return p.crcOut.Load() }
