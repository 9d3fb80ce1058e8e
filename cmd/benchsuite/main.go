// Command benchsuite regenerates every table and figure of the paper's
// evaluation section (§V): Fig. 1(a)/(b) communication primitives,
// Fig. 8(a)/(b) parameter tuning, Fig. 9 progress, Fig. 10(a)-(c) workload
// comparisons, Fig. 11 resource profiles, Fig. 12 spill-over, Fig. 13
// fault tolerance, Fig. 14 scalability, plus design ablations.
//
// Usage:
//
//	benchsuite [-exp all|fig1a|fig1b|fig8a|fig8b|fig9|fig10a|fig10b|fig10c|
//	            wordcount|fig11|fig12|fig13a|fig13b|fig14a|fig14b|ablations]
//	           [-quick] [-o file] [-list] [-pprof addr]
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"datampi/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id, comma list, or 'all'")
	quick := flag.Bool("quick", false, "use small test-scale inputs")
	outPath := flag.String("o", "", "also write the output to this file")
	list := flag.Bool("list", false, "list experiment ids and exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "benchsuite: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	o := bench.Default()
	if *quick {
		o = bench.Quick()
	}
	cpDir := func() string {
		d, err := os.MkdirTemp("", "datampi-cp-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return d
	}
	type driver struct {
		id  string
		run func() (*bench.Table, error)
	}
	drivers := []driver{
		{"fig1a", bench.Fig1a},
		{"fig1b", bench.Fig1b},
		{"fig8a", func() (*bench.Table, error) { return bench.Fig8a(o) }},
		{"fig8b", func() (*bench.Table, error) { return bench.Fig8b(o) }},
		{"fig9", func() (*bench.Table, error) { return bench.Fig9(o) }},
		{"fig10a", func() (*bench.Table, error) { return bench.Fig10a(o) }},
		{"wordcount", func() (*bench.Table, error) { return bench.WordCountExp(o) }},
		{"fig10b", func() (*bench.Table, error) { return bench.Fig10b(o) }},
		{"fig10c", func() (*bench.Table, error) { return bench.Fig10c(o) }},
		{"fig11", func() (*bench.Table, error) { return bench.Fig11(o) }},
		{"fig12", func() (*bench.Table, error) { return bench.Fig12(o) }},
		{"fig13a", func() (*bench.Table, error) { return bench.Fig13a(o, cpDir) }},
		{"fig13b", func() (*bench.Table, error) { return bench.Fig13b(o, cpDir) }},
		{"fig14a", bench.Fig14a},
		{"fig14b", bench.Fig14b},
		{"ablations", bench.Ablations},
	}
	if *list {
		for _, d := range drivers {
			fmt.Println(d.id)
		}
		return
	}
	var sink *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = f
	}
	want := strings.Split(*exp, ",")
	match := func(id string) bool {
		for _, w := range want {
			if w == "all" || w == id {
				return true
			}
		}
		return false
	}
	ran := 0
	for _, d := range drivers {
		if !match(d.id) {
			continue
		}
		t, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.id, err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		if sink != nil {
			fmt.Fprintln(sink, t.Render())
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
