package rpc

import "bess/internal/proto"

// CRCOut reports whether p's outbound frames carry CRC trailers, for the
// external tests that drive a peer over a fault.Conn.
func CRCOut(p *Peer) bool { return p.crcOut.Load() }

// named is a test method outside the table: it travels under its name.
func named(name string) proto.Method[echoArgs, echoReply] {
	return proto.Method[echoArgs, echoReply]{Desc: proto.Desc{Name: name}}
}
