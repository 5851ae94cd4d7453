package verfploeter

import (
	"time"

	"verfploeter/internal/ipv4"
)

// Reply is one captured echo reply, tagged with the site that captured it
// and the virtual capture time — the tuple the central analysis consumes.
type Reply struct {
	Site  int
	At    time.Duration
	Src   ipv4.Addr
	Ident uint16
	Seq   uint16
}
