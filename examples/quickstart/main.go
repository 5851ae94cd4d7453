// Quickstart: map the catchment of a two-site anycast service.
//
// This is the paper's core loop in ~30 lines: build a deployment, run one
// Verfploeter round (ICMP probes to every hitlist /24, sourced from the
// anycast prefix), and read off which site each responding block reaches.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"verfploeter"
)

func main() {
	log.SetFlags(0)

	// B-Root after its May 2017 anycast deployment: LAX + MIA.
	d := verfploeter.BRoot(verfploeter.SizeSmall, 42)

	catch, stats, err := d.Map(1)
	if err != nil {
		log.Fatalf("measurement failed: %v", err)
	}

	fmt.Printf("probed %d /24 blocks; last reply copy at %v of virtual time\n", stats.Sent, stats.Elapsed)
	fmt.Printf("replies kept after cleaning: %d (dups %d, unsolicited %d, late %d)\n",
		stats.Clean.Kept, stats.Clean.Duplicates, stats.Clean.Unsolicited, stats.Clean.Late)

	counts := catch.Counts()
	for i, code := range d.SiteCodes() {
		fmt.Printf("site %-4s %7d blocks (%5.1f%%)\n",
			code, counts[i], 100*catch.Fraction(i))
	}

	fmt.Println("\ncatchment map (L=LAX, M=MIA, .=no data):")
	if err := d.RenderCatchmentMap(os.Stdout, catch); err != nil {
		log.Fatal(err)
	}
}
