// Command pbiquery evaluates a containment query //anc//desc over an XML
// document using the join framework and reports the result with per-run
// cost counters.
//
// Usage:
//
//	pbiquery -anc section -desc figure [-algo auto] [-where 'title=Introduction']
//	         [-limit 10] [-buffer 500] file.xml
//	pbiquery -path '//Section[Title="Introduction"]//Figure' file.xml
//
// -where restricts the ancestor set to elements that have a child with the
// given tag and exact text; -path evaluates a full descendant/child-axis
// path expression instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

func main() {
	var (
		anc      = flag.String("anc", "", "ancestor tag")
		desc     = flag.String("desc", "", "descendant tag")
		path     = flag.String("path", "", "path expression, e.g. //a[t=\"v\"]//b (overrides -anc/-desc)")
		algo     = flag.String("algo", "auto", "algorithm: auto|nlj|shcj|mhcj|rollup|vpj|inljn|stacktree|stackanc|mpmgjn|adb")
		where    = flag.String("where", "", "ancestor filter childTag=text")
		limit    = flag.Int("limit", 10, "result pairs to print (0 = count only)")
		buffer   = flag.Int("buffer", 500, "buffer pool pages")
		parallel = flag.Int("parallel", 0, "intra-engine worker degree for partition fan-outs (0/1 = serial)")
		analyze  = flag.Bool("analyze", false, "EXPLAIN ANALYZE: print the per-phase cost breakdown (with -anc/-desc)")
		timeout  = flag.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
	)
	flag.Parse()
	if (*path == "" && (*anc == "" || *desc == "")) || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pbiquery (-anc TAG -desc TAG | -path EXPR) [-algo NAME] [-where child=text] [-limit N] file.xml|-")
		os.Exit(2)
	}
	alg, ok := containment.ParseAlgorithm(*algo)
	if !ok {
		fmt.Fprintf(os.Stderr, "pbiquery: unknown algorithm %q (accepted: %s)\n",
			*algo, strings.Join(containment.AlgorithmNames(), ", "))
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	doc, err := xmltree.Parse(in, xmltree.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
		os.Exit(1)
	}

	// Ctrl-C cancels the running query cooperatively (with a partial stats
	// report); -timeout bounds it with a deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *path != "" {
		eng, err := containment.NewEngine(containment.Config{BufferPages: *buffer, TreeHeight: doc.Height, Parallel: *parallel})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
			os.Exit(1)
		}
		defer eng.Close()
		codes, err := eng.QueryContext(ctx, doc, *path)
		if err != nil {
			if canceled(err) {
				fmt.Fprintf(os.Stderr, "pbiquery: query aborted (%s)\n", containment.Classify(err))
			} else {
				fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
			}
			os.Exit(1)
		}
		for i, c := range codes {
			if i >= *limit && *limit > 0 {
				fmt.Printf("  ... %d more\n", len(codes)-i)
				break
			}
			fmt.Printf("  %s (%d)\n", describe(doc, c), uint64(c))
		}
		fmt.Printf("%s: %d elements\n", *path, len(codes))
		return
	}

	ancCodes := doc.Codes(*anc)
	if *where != "" {
		childTag, text, ok := strings.Cut(*where, "=")
		if !ok {
			fmt.Fprintln(os.Stderr, "pbiquery: -where wants childTag=text")
			os.Exit(2)
		}
		ancCodes = doc.CodesWhere(*anc, func(e *xmltree.Element) bool {
			for _, c := range e.Children {
				if c.Tag == childTag && c.Text == text {
					return true
				}
			}
			return false
		})
	}

	eng, err := containment.NewEngine(containment.Config{BufferPages: *buffer, TreeHeight: doc.Height, Parallel: *parallel})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
		os.Exit(1)
	}
	defer eng.Close()
	a, err := eng.Load(*anc, ancCodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
		os.Exit(1)
	}
	d, err := eng.Load(*desc, doc.Codes(*desc))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
		os.Exit(1)
	}

	if *analyze {
		an, err := eng.AnalyzeContext(ctx, a, d, containment.JoinOptions{Algorithm: alg})
		if err != nil {
			if an != nil && canceled(err) {
				// Partial EXPLAIN ANALYZE: the span tree's root is annotated
				// with the abort cause.
				fmt.Printf("//%s//%s (aborted):\n%s", *anc, *desc, an.Table())
			}
			fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("//%s//%s:\n%s", *anc, *desc, an.Table())
		return
	}

	printed := 0
	res, err := eng.JoinContext(ctx, a, d, containment.JoinOptions{
		Algorithm: alg,
		Emit: func(p containment.Pair) error {
			if printed < *limit {
				printed++
				fmt.Printf("  %s (%d)  contains  %s (%d)\n",
					describe(doc, p.A), uint64(p.A), describe(doc, p.D), uint64(p.D))
			}
			return nil
		},
	})
	if err != nil {
		if res != nil && canceled(err) {
			fmt.Printf("//%s//%s: CANCELED (%s)  pairs so far=%d  algorithm=%s  pageIO=%d  wall=%v\n",
				*anc, *desc, containment.Classify(err), res.Count, res.Algorithm,
				res.IO.Total(), res.IO.WallTime.Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr, "pbiquery: %v\n", err)
		os.Exit(1)
	}
	if res.Count > int64(printed) && *limit > 0 {
		fmt.Printf("  ... %d more\n", res.Count-int64(printed))
	}
	fmt.Printf("//%s//%s: %d pairs  algorithm=%s  |A|=%d |D|=%d  pageIO=%d (%d seq)  wall=%v\n",
		*anc, *desc, res.Count, res.Algorithm, a.Len(), d.Len(),
		res.IO.Total(), res.IO.SeqReads+res.IO.SeqWrites, res.IO.WallTime.Round(10_000))
	if res.FalseHits > 0 {
		fmt.Printf("  rollup false hits filtered: %d\n", res.FalseHits)
	}
}

// canceled reports whether err is a cancellation (Ctrl-C) or deadline
// (-timeout) abort, the cases where partial output is worth printing.
func canceled(err error) bool {
	switch containment.Classify(err) {
	case containment.FailCanceled, containment.FailDeadline:
		return true
	}
	return false
}

func describe(doc *xmltree.Document, c pbicode.Code) string {
	e := doc.ByCode(c)
	if e == nil {
		return "?"
	}
	if e.Text != "" && len(e.Text) <= 20 {
		return fmt.Sprintf("%s[%s]", e.Tag, e.Text)
	}
	return e.Tag
}
