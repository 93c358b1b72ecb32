package frontend

import (
	"bufio"
	"fmt"
	"io"
)

// Format writes the program back out in the canonical trace spelling:
// prog line first, one instruction per line, labels on their own lines,
// each region's trip directive right after its label. Format and Parse
// round-trip: parsing Format's output reproduces the program (and
// re-formatting it is byte-identical), the property FuzzParseTrace pins.
func Format(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "prog %s\n", p.Name)
	tripAt := make(map[int]*Region, len(p.Regions))
	for _, r := range p.Regions {
		if r.Trip > 0 {
			tripAt[r.Start] = r
		}
	}
	for i, in := range p.Insts {
		if in.Label != "" {
			fmt.Fprintf(bw, "%s:\n", in.Label)
		}
		if r := tripAt[i]; r != nil {
			fmt.Fprintf(bw, "\ttrip %d\n", r.Trip)
		}
		fmt.Fprintf(bw, "\t%s\n", in.String())
	}
	return bw.Flush()
}
