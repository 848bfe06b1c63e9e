package pufatt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// rootConsumers maps every export of the root package to the one thing
// that consumes it. A top-level name is keyed by itself; a method or a
// struct field as <Type>.<Name>.
//
//   - example:<dir>  examples/<dir> names it: pufatt.<Name> for a
//     top-level name; for <Type>.<Name>, pufatt.<Type> and a .<Name>
//     selector or a <Name>: literal key;
//   - sig:<Export>   <Export>'s signature or field types name it.
//
// A test is not a consumer, and neither is a document. An export nothing
// consumes is deleted, not listed.
var rootConsumers = map[string]string{
	"AttestParams":            "example:remoteattest",
	"AttestTelemetry":         "example:fleetwatch",
	"Config":                  "sig:NewDesign",
	"DefaultConfig":           "example:burnin",
	"DefaultFPGAConfig":       "example:fpgacalib",
	"DefaultLink":             "example:remoteattest",
	"DefaultRetryPolicy":      "example:remoteattest",
	"DefaultSlenderParams":    "example:deviceauth",
	"Design":                  "sig:NewDesign",
	"Device":                  "example:deviceauth",
	"Emulator":                "sig:NewSlenderVerifier",
	"EvaluateObfuscatedModel": "example:mlattack",
	"EvaluateRawModel":        "example:mlattack",
	"FPGABoard":               "example:fpgacalib",
	"FPGAConfig":              "sig:DefaultFPGAConfig",
	"FaultInjector":           "sig:NewFaultInjector",
	"FaultPlan":               "example:remoteattest",
	"FaultyLink":              "sig:NewFaultyLink",
	"Fleet":                   "example:fleetwatch",
	"FleetFederator":          "sig:NewFleetFederator",
	"FormatTable1":            "example:fpgacalib",
	"Image":                   "sig:System",
	"Link":                    "sig:DefaultLink",
	"MLModel":                 "sig:TrainRawModel",
	"Mix32":                   "example:remoteattest",
	"NewDesign":               "example:burnin",
	"NewDevice":               "example:burnin",
	"NewFPGABoard":            "example:fpgacalib",
	"NewFPGADesign":           "example:fpgacalib",
	"NewFaultInjector":        "example:remoteattest",
	"NewFaultyLink":           "example:fleetwatch",
	"NewFleet":                "example:fleetwatch",
	"NewFleetFederator":       "example:fleetwatch",
	"NewObfuscatedOracle":     "example:mlattack",
	"NewRand":                 "example:burnin",
	"NewSIRCChannel":          "example:fpgacalib",
	"NewSlenderProver":        "example:deviceauth",
	"NewSlenderVerifier":      "example:deviceauth",
	"NewSystem":               "example:remoteattest",
	"ObfuscatedOracle":        "sig:NewObfuscatedOracle",
	"Options":                 "example:remoteattest",
	"Options.Attest":          "example:remoteattest",
	"Options.ChipID":          "example:remoteattest",
	"Options.Payload":         "example:remoteattest",
	"Options.Seed":            "example:remoteattest",
	"Prover":                  "sig:System",
	"ProverAgent":             "example:fleetwatch",
	"Rand":                    "sig:NewRand",
	"ResourceRow":             "sig:Table1",
	"RetryPolicy":             "example:fleetwatch",
	"SIRCChannel":             "sig:NewSIRCChannel",
	"ScrapeSource":            "example:fleetwatch",
	"ServeProver":             "example:remoteattest",
	"SlenderAuthenticate":     "example:deviceauth",
	"SlenderOutcome":          "sig:SlenderAuthenticate",
	"SlenderParams":           "sig:DefaultSlenderParams",
	"SlenderProver":           "sig:NewSlenderProver",
	"SlenderVerifier":         "sig:NewSlenderVerifier",
	"StartAdmin":              "example:fleetwatch",
	"StartFederation":         "example:fleetwatch",
	"SweepReport":             "example:fleetwatch",
	"System":                  "example:remoteattest",
	"System.Design":           "example:remoteattest",
	"System.Device":           "example:remoteattest",
	"System.Image":            "example:remoteattest",
	"System.Prover":           "example:remoteattest",
	"System.QueryPUF":         "example:remoteattest",
	"System.Verifier":         "example:remoteattest",
	"Table1":                  "example:fpgacalib",
	"TrainObfuscatedModel":    "example:mlattack",
	"TrainRawModel":           "example:mlattack",
	"Verifier":                "sig:System",
}

// rootExports parses the root package's non-test files and returns every
// export keyed as in rootConsumers, each with the type expression its
// signature is read from: a function's type, a type's definition, a
// field's type.
func rootExports(t *testing.T) map[string]ast.Expr {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]ast.Expr{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					key = recv.(*ast.Ident).Name + "." + key
				}
				if d.Name.IsExported() {
					exports[key] = d.Type
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						exports[s.Name.Name] = s.Type
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								if n.IsExported() {
									exports[s.Name.Name+"."+n.Name] = field.Type
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								exports[n.Name] = s.Type
							}
						}
					}
				}
			}
		}
	}
	return exports
}

// namesType reports whether the type expression uses the identifier name
// as a type: in a parameter, a result or a field type, not as the name of
// one.
func namesType(expr ast.Expr, name string) bool {
	found := false
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			found = found || n.Name == name
		}
		return true
	}
	if expr != nil {
		ast.Inspect(expr, visit)
	}
	return found
}

// exampleSource returns the concatenated Go source of examples/<dir>.
func exampleSource(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("examples", dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(b)
	}
	return src.String()
}

// TestEveryRootExportHasAConsumer fails on a root export with no listed
// consumer, on a listed name that is not an export, and on a consumer
// that does not name what it is listed for. An export that loses its last
// consumer is deleted with its entry.
func TestEveryRootExportHasAConsumer(t *testing.T) {
	exports := rootExports(t)
	var unlisted []string
	for name := range exports {
		if _, ok := rootConsumers[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	sort.Strings(unlisted)
	if len(unlisted) > 0 {
		t.Errorf("%d root exports have no consumer; delete them, or list the example or kept export that uses each: %s",
			len(unlisted), strings.Join(unlisted, ", "))
	}

	for name, consumer := range rootConsumers {
		if _, ok := exports[name]; !ok {
			t.Errorf("%s is listed but is not a root export", name)
			continue
		}
		kind, target, _ := strings.Cut(consumer, ":")
		switch kind {
		case "example":
			src := exampleSource(t, target)
			owner, member, isMember := strings.Cut(name, ".")
			used := regexp.MustCompile(`pufatt\.` + owner + `\b`).MatchString(src)
			if isMember {
				used = used && regexp.MustCompile(`\.`+member+`\b|\b`+member+`:`).MatchString(src)
			}
			if !used {
				t.Errorf("%s: examples/%s does not use it", name, target)
			}
		case "sig":
			sig, ok := exports[target]
			if !ok {
				t.Errorf("%s: consumer %s is not a root export", name, target)
			} else if !namesType(sig, name) {
				t.Errorf("%s: %s's signature does not name it", name, target)
			}
		default:
			t.Errorf("%s: consumer %q is neither example:<dir> nor sig:<Export>", name, consumer)
		}
	}

	// A sig chain must end at an example, or a set of exports would keep
	// each other alive.
	for name := range rootConsumers {
		seen := map[string]bool{}
		for at := name; strings.HasPrefix(rootConsumers[at], "sig:"); at = strings.TrimPrefix(rootConsumers[at], "sig:") {
			if seen[at] {
				t.Errorf("%s: its sig: chain loops back to %s without reaching an example", name, at)
				break
			}
			seen[at] = true
		}
	}

	t.Run("docs name only real exports", func(t *testing.T) {
		ref := regexp.MustCompile(`\bpufatt\.([A-Z]\w*)`)
		docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
			filepath.Join(".claude", "skills", "verify", "SKILL.md")}
		for _, doc := range docs {
			b, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ref.FindAllStringSubmatch(string(b), -1) {
				if _, ok := exports[m[1]]; !ok {
					t.Errorf("%s names pufatt.%s, which the root package does not export", doc, m[1])
				}
			}
		}
	})
}
