package experiments

import (
	"fmt"

	"plasma/internal/apps/estore"
	"plasma/internal/apps/halo"
	"plasma/internal/apps/mediaservice"
	"plasma/internal/apps/metadata"
	"plasma/internal/apps/pagerank"
	"plasma/internal/epl"
)

// Four of Table 1's applications run in no figure, so they exist here only
// as a policy and a schema: Table 1 reports that each policy has fewer than
// ten rules and compiles against its application's actor classes.

// bptreePolicySrc is the distributed B+ tree's policy: colocate
// parent-child inner nodes, keep leaf nodes on separate servers.
const bptreePolicySrc = `
InnerNode(c) in ref(InnerNode(p).children) => colocate(p, c);
true => separate(LeafNode(a), LeafNode(b));
`

// piccoloPolicySrc is Piccolo's policy: balance worker CPU, and keep each
// worker with the table partition it reads.
const piccoloPolicySrc = `
server.cpu.perc > 80 or server.cpu.perc < 60 =>
    balance({Worker}, cpu);
Table(t) in ref(Worker(w).reads) => colocate(w, t);
`

// zexpanderPolicySrc is zExpander's policy: the two-zone cache's
// memory-heavy leaf actors get servers of their own.
const zexpanderPolicySrc = `
server.mem.perc > 40 => reserve(Leaf(l), mem);
`

// cassandraPolicySrc is the Cassandra-style store's policy: a table's
// replicas on different servers.
const cassandraPolicySrc = `
Replica(r1) in ref(TableMeta(t).replicas) and
Replica(r2) in ref(t.replicas) =>
    separate(r1, r2);
`

// Table1 regenerates Table 1's application inventory: each application's
// elasticity policy is compiled and checked against its schema, and the
// rule counts and behaviors are reported. (The paper's LoC column counted
// the authors' AEON sources; here the analogous inventory is the compiled
// rule set per application.)
func Table1(cfg Config) *Result {
	r := newResult("table1", "Applications implemented with PLASMA (rule inventory)")
	r.Header = []string{"Application", "Rules", "Behaviors", "Compiles", "Warnings"}

	type appEntry struct {
		name   string
		policy string
		schema *epl.Schema
	}
	bptreeSchema := epl.NewSchema(
		epl.Class("InnerNode", []string{"lookup", "insert", "childSplit"}, []string{"children"}),
		epl.Class("LeafNode", []string{"lookup", "insert"}, nil),
	)
	piccoloSchema := epl.NewSchema(
		epl.Class("Worker", []string{"kernel"}, []string{"reads"}),
		epl.Class("Table", []string{"get", "put"}, nil),
	)
	zexpanderSchema := epl.NewSchema(
		epl.Class("Index", []string{"get", "set"}, []string{"leaves"}),
		epl.Class("Leaf", []string{"fetch", "store"}, nil),
	)
	cassandraSchema := epl.NewSchema(
		epl.Class("Coordinator", []string{"write", "read"}, nil),
		epl.Class("TableMeta", []string{"describe"}, []string{"replicas"}),
		epl.Class("Replica", []string{"apply", "fetch"}, nil),
	)
	apps := []appEntry{
		{"Metadata Server", metadata.PolicySrc, metadata.Schema()},
		{"PageRank", pagerank.PolicySrc, pagerank.Schema()},
		{"E-Store", estore.PolicySrc, estore.Schema()},
		{"Media Service", mediaservice.PolicySrc, mediaservice.Schema()},
		{"Halo Presence", halo.FullPolicySrc, halo.Schema()},
		{"B+ tree", bptreePolicySrc, bptreeSchema},
		{"Piccolo", piccoloPolicySrc, piccoloSchema},
		{"zExpander", zexpanderPolicySrc, zexpanderSchema},
		{"Cassandra", cassandraPolicySrc, cassandraSchema},
	}
	totalRules := 0
	for _, a := range apps {
		pol, err := epl.Parse(a.policy)
		status := "yes"
		warnCount := 0
		behaviors := ""
		if err != nil {
			status = "NO: " + err.Error()
		} else {
			warns, cerr := epl.Check(pol, a.schema)
			if cerr != nil {
				status = "NO: " + cerr.Error()
			}
			warnCount = len(warns)
			kinds := map[string]int{}
			for _, rule := range pol.Rules {
				for _, b := range rule.Behaviors {
					kinds[b.Kind().String()]++
				}
			}
			for _, k := range []string{"balance", "reserve", "colocate", "separate", "pin"} {
				if kinds[k] > 0 {
					if behaviors != "" {
						behaviors += " "
					}
					behaviors += fmt.Sprintf("%s×%d", k, kinds[k])
				}
			}
			totalRules += len(pol.Rules)
			r.addRow(a.name, fmt.Sprintf("%d", len(pol.Rules)), behaviors, status, fmt.Sprintf("%d", warnCount))
			continue
		}
		r.addRow(a.name, "-", behaviors, status, fmt.Sprintf("%d", warnCount))
	}
	r.Summary["apps"] = float64(len(apps))
	r.Summary["total_rules"] = float64(totalRules)
	r.notef("paper reports <10 rules per application; all policies compile against their schemas")
	return r
}
