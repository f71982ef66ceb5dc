package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/alias"
	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/purity"
	"repro/internal/reach"
	"repro/internal/scenario"
	"repro/internal/staticanal"
)

// scanOutputs returns the sha256 of the JSON of the five static-scan
// outputs of one session: the reachability graph, the plain purity
// report, the alias-refined purity report, the points-to result with its
// provenance chains, and the constraint analysis.
func scanOutputs(t *testing.T, name string) [5]string {
	t.Helper()
	app, err := scenario.NewApp(name)
	if err != nil {
		t.Fatal(err)
	}
	a := New(app)
	if err := a.EnableAlias(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	hash := func(write func(io.Writer) error) string {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	encode := func(v any, indent string) func(io.Writer) error {
		return func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", indent)
			return enc.Encode(v)
		}
	}
	return [5]string{
		hash(encode(a.Reach, "")),
		hash(encode(a.Purity, "")),
		hash(encode(a.AnalysisOptions.Purity, "")),
		hash(a.Alias.WriteJSON),
		hash(encode(a.Static, "  ")),
	}
}

// TestScanOutputsPinned holds every static scan's output, provenance
// strings included, to the bytes it had before the closures moved to
// dense class ids: reach's edge IIDs and provenance, alias's Via/From and
// chains, and purity's ImpureVia are first-wins, so a change in visiting
// order shows here.
func TestScanOutputsPinned(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		app string
		sum [5]string // reach, purity, refined purity, alias, staticanal
	}{
		{"octarine", [5]string{"d46cbd0c1312f74dc9ebc58ff6ad2dbb2ac96ce4d364e4c47ba7bcd5e9b3480b", "f6f2bca57484c9102078610108a5fdbd73d5803ccdcc63f24efb30cc71539835", "193dd56cbd235f50670230cf9d7d76db98a92c99ffd8dbd16f33d8165ae58e28", "678c04e0ea75d6c9c77e26245508f2792e535de7a98a440bc806ae0b2c7e1c75", "b278c07c91ddcdf0a3a3ede0679a2974a6f263e89c68f3591bafeeb241fb1e3d"}},
		{"photodraw", [5]string{"f6ba8adfebb89f8cbf352fe056e97882061f22db5243d795729bc35510335fe1", "a32aa72da45337c7400c3dac15eefa7e5147e9c55b659c5203c36600737a711d", "2ab6d4990112db67903800f67f473edec556147b7c73454ab5367b88dcba51a8", "0956949fbcb88a02e9caac326a506e7dde098cc537f714639bd025d2a5064800", "2b76dc770eb63b5f5f72e9c67a315d47ef022eecce56afec139f460cd7c4a637"}},
		{"benefits", [5]string{"aed2294dabf3a35976e7685e4ac9edba493da2b3dd848149d3f38a444665d529", "cd19a2fc13a164d5f003ec58f8f9e3c4c709b9cf9ecab933b38370975eaa4186", "6ee277bc838ec507b3729b82b7783cfb660d8e4a202cdb62513fad69c50e5f55", "e99d610b3c865a1ff174f11de642559324de61beafc9d28e953984f5ba1b4137", "bb6e8e36ea185708b447761ecb50beef106888702fbabdb3be49caf9936f2064"}},
		{"quickstart", [5]string{"6bb284ee2e3e99af51a369a354c8237a489f529f3ac302fd52fbca796a178609", "b3aaa79617a7732edafbe0e92d9c109bd163ee6b3671bdc5dd1f1ddba461af29", "c835ed064aa5dfe0a081fbb4cf8cf586e9c362de4d2818e312eea281ff2ac99b", "515624a44ae0a483fe1595fc2e1bd5eea6a6e40a3627a2c322358c80ba65afd1", "71712209a7b1e3039d1c642000c174335785e8cfb4563b297e878764a162f39e"}},
		{"synth:three-tier:1:1", [5]string{"8f690089d60411fe28547d043d8768c43e49d181eb92403751f8f046beb76b58", "6ef5cff5f6cf968c0510c293fd91a1045e52e9b3c65fd3cb2f5b53fd6bf54309", "68e5ddd6b547dac174ee632d945c35137ea12f16c93eaa27c327506613b1e236", "fa1f1e2c3a78f92b682d43cbb2b01d4c9d9539a13c85c6b3dce999e99cef1f7b", "5beca3ddf3515ef075fcc51b48a4ab801eaef7fc4647380296925bfd2275f085"}},
		{"synth:three-tier:1:4", [5]string{"dbd3306e8ee41892bb1cec30832f200f3fea95460d0240d8f2ff96dbe7af918b", "810cccebf641758623fdfe55cecb0b9c104d13b000c5791e770cfaeabe5215a1", "c0c94a951c6f2ddb05ab810df33017e436b086a0ff2051d2ca89fbb5c003263e", "250a23f0e4eeeadf113d77ba8b79748e088d10d877d5851bf656632e8514fefa", "4b9a231bb644951c9efc0b365bb9622da63b55e3e3c04abb96cec814598f6573"}},
		{"synth:scatter-gather:1:1", [5]string{"2e83cbb5e5eccaf17a53f30e30c77984c92f76d5b2d22508f55fcf9bbf36389b", "b2d75ad8264b97453ea6ea0a05cb5d904879253ba089d41a8458803947ae639d", "051aa6a6d3c4538342e97d83ea8842eae8b977b879827d7ee01b1ddb04518e64", "9e57de2c2c39e842121bb699e2347def1c417fd962a44d532a236b87f326963d", "51a05d0d4184b422859a70b15f3279e3ebc5a08693f9d5ae5377a5b964b32d13"}},
		{"synth:scatter-gather:1:4", [5]string{"ed314fa5a5b5888bfb222fdfa09c18c254b8ac61556dd7e95665d57ac6f2344e", "d5f160e8b5e4147e073bd630224bbd59a5978f6f5c1f6154634351de09cb4f26", "457ff2a09364262c9adf1522aa5d9f9891449e0ee30c9a9550986ecfb773b185", "9f9703e0d500beed7fba1f7d2b63b45920e4bf28b0775fdd4e086201fb57e04b", "c7a9d71b0be6b5c8f39a187db4161b1ce1846f21f0fc6649394bb44138eda854"}},
		{"synth:pipeline:1:1", [5]string{"a1c7bd8add8a906b6b60845df7cd3b58fd8abdb0bc1289c1ab5c70a78127864f", "e33bb59a28b2936eae2d17626e9eb53dbdc0cbacbc20d3e466ad6d45aed032ae", "99d84b225d3e04bf50be3d738a8ddf5660cebced851d5eda850502de4bd0b8f7", "1cefd1f5d6b9b068a6c958079ab2d9f416b65b7d531032628312f9ce6ef3bf4d", "76280b3e1f912e9de8920f5096010b14fe9a822820ee4683d702c12746ac89d1"}},
		{"synth:pipeline:1:4", [5]string{"8044c8cdc7a8f2e8d2a4adc20bfce8cb65cd57ab218ea29752e2f3ebac6d7538", "9f208cfcf6e7bcaa2019e6429a7894dd25d6d925900d58225fb809853129d0f3", "70e4a1136f6bc99589cd54a7525f8a83b451e07123f62ab0a6bd7f3f7c344d1d", "02c9bc2a42c5860d48689267f136788127ab9749b52fa83b350f6e6996a6f78d", "598f1305cff85b1006ec4c11e08a02d958364de0fe17f3ab018f222636047a90"}},
		{"synth:gui-swarm:1:1", [5]string{"56d3fd53a50fd38c10074745a2ce1ab64ad61d788a0087f02e26d5e6eded2e9a", "1e8e941093ceff6304f5e37915553bf52b6c31bc345f5ead1cf99c7041779e1a", "80951b6a6cb6213481c4898d00d492e1195baa629da7d141d972cca47b4a6cbf", "de693a9b3013f02ab8297373597cc2b74a0bf4005a71a83778fd40d0dcede252", "275c75d2597a31cce6ae10918495755a1cddf43a93715e63bd6460edeb37dfee"}},
		{"synth:gui-swarm:1:4", [5]string{"e3e9ab977fbafbd3cf2d4969e8c54b0f786ffc0367fbeff15c0e22baf7625ccc", "bd7a134a16b12d283eeb4431ca5b2f1edb1f3853a1861f726a2394705bd61a7c", "d98f5c5090ed61ce8c94f7f02abd93da36341aac912be817f6f45309b84866a8", "a4b290a1de16a1bd812c4bbd1fd085dca5a06c884d6a1248bac92b3b2e88b47f", "65783d80feabb62705048c4bc204bb20fc888d9fb182950ce4a6a61b7a2947c4"}},
		{"synth:cache-heavy:1:1", [5]string{"efa7c2208f62f11b262ecf437ce65c1382b2995828df40ee6c7bbda2f4e18f9d", "61a4a456f4e6a41132233e1f931fa875b175ca74716f9f060657c43ba08ffeaf", "c76dbb54a4f35823fdffc1c292eb08f0a28774ee7da0dee23a067200d9dd4e14", "6e1448e21a3eb75105a6e1a7c2f26489d1d92bb96362cb70f50e5a35f40f11f0", "67b1b379f73600fe8061d0038e12068cb3eba1fcbb9e04779c2dfbf0d5c68ebf"}},
		{"synth:cache-heavy:1:4", [5]string{"0d7609b896b06a5fd07992940eed5368b5cc2f0ac4e5d17c9ea2fb0b39562412", "b534a92d79ad1f8db91ce175c8996b719af8c6a0eb051c2a0887333a37fc8261", "a125bea2468690e29fa9aa56508035e69fbbb06a090975cf305c2fd88bfc145b", "1147aa303cad1af6a738c4cc6225ec5dfa318defe92393f9ef87ccef51731d0a", "eb79869f523b8be0b028c8d9518823794aa0b9846fbd84f85c0db6ab2f050ae4"}},
		{"synth:skewed:1:1", [5]string{"fcbeef8b213e04fcc60b67808b871c10e156db5e440471f75cf5cf59e3a194f8", "53a4beaeb7579c4c5d5517d27bcafcd58e6e061336b209419a946dadde1c4f3f", "f0bd6a861ca647d9344cd1410616518dca96f93cc46b767d7b5184be4dbdbc16", "de8dc357704833df47d52dca969273a9fd633873a83cd90aecbf6f981e7b45cf", "70b985ba3db7b8c3175f59cace4e304823f5f17a7feb6abd338bf87ece1a70bf"}},
		{"synth:skewed:1:4", [5]string{"7041c5b52beddc0c8c9235c5d0b21502be3c8de3e638c2a29d4be26e4ef5be0d", "758531469ce8ba46c2055f590a7b88d562fe945967f59713fe1e41b728c9b960", "e8e10f6ca6659490e9a131af6335ba9f27dc75a3845c18734e64f31a99313e5c", "b984ed23f3244e0141978b3e65786c70c383c0c6e62bb4a588e038d8a555496a", "fdc1320e9b249a3913144bef5c36d98ef392dded58db325dc2ac29f5826cb1b4"}},
		{"synth:read-replica:1:1", [5]string{"fda2f7d658613bf040d69d3879648d26e07db1e6e84aaf8d9f649c5946c5c00e", "dd9457ebcd631b317f912e3083a0dbd423645a0dbb2440c2869ab2e420270da7", "1591a0713141c4911dd9a71bf159f17937419e7befa7d47e70523020b971a119", "b3efab6405b14cb9f98f0a69cef999b8fa5fc82a9c9bdf5089bbfb41ccb6e2e2", "8ffdfae6fea8bda24037d34e0e30fb1744179b13f96531b071b7392897953310"}},
		{"synth:read-replica:1:4", [5]string{"6f08ce515cee40a0a2ec404eae623b62d8a90d85eb74d078747c54ecf77cc973", "6e1915a369112725c8cf1357e25221671f8946fdf95ae0b7b33006b1b55f5642", "6d7d5147da3675cf8e6db46548a48baf25c82b4fbe64a19ec96a00a3ebf7d8a7", "098f1ea8d3a51d1a1aac8ac88f2cb401d5de4aba0a4af867a4e9d8245a576fec", "1ebdb081f4fb476ae81ccb583eed3bc7cda46e9b9eaa2ab996e03244ec13b2c6"}},
		{"synth:shared-state:1:1", [5]string{"b36f41d6149a6dce0cd556b68cc3e14d3ce91b8c5f9292121bd538afb35e1fe0", "131bb5a4b562e4a4c615225c28a2312de2746108a01071b71b9e592847be9f2a", "de38eee3dfd8d04355c1e4e69efa8860cd8f0112b4488e0f3c7c418fbcb50f6d", "a6a83a1a2f6e8c0b53106483d9fe56b1e4ad2e495d44a9c234a2ee6505c58367", "db5581faaef9a21c72e5a0c1f9d475b5720c20274c937fc856cbbe8be2bb0345"}},
		{"synth:shared-state:1:4", [5]string{"4461facacd0061d6dbec7fd870696768abcbe8290e6ff5be7d535ba230a1312b", "80d3f623a3884bbd4cdc4dbc87a94a2e301e73694a35281e3b1cc35b49d1395e", "2621e4ae67dac803e798ba5bbd29c88ea3b67c24360d4107ad35d08f8023faba", "c2e4394f5e5d7d161fdaaee6d8dec7c59194c48508305ae6a1021993d7376731", "94f5f950134b587bdf8455a2e9690224f7f161685316d6fb778a219b4a90aca0"}},
	} {
		t.Run(c.app, func(t *testing.T) {
			t.Parallel()
			got := scanOutputs(t, c.app)
			for i, scan := range []string{"reach", "purity", "refined purity", "alias", "staticanal"} {
				if got[i] != c.sum[i] {
					t.Errorf("%s: %s output sha256 %s, want %s", c.app, scan, got[i], c.sum[i])
				}
			}
			if t.Failed() {
				t.Logf("{%q, [5]string{%q, %q, %q, %q, %q}},", c.app, got[0], got[1], got[2], got[3], got[4])
			}
		})
	}
}

// TestScansSurviveRecursiveTypes opens a session on an application whose
// interface passes a struct with a field pointing back to itself, in a
// result and in a parameter: every scan must walk it, find the interface
// pointer and the opaque payload beside the cycle, and return.
func TestScansSurviveRecursiveTypes(t *testing.T) {
	t.Parallel()
	node := idl.Struct("Node", idl.Field("peer", idl.InterfaceType("IWidget")), idl.Field("buf", idl.TOpaque))
	node.Fields = append(node.Fields, idl.Field("next", node))
	ifaces := idl.NewRegistry()
	ifaces.Register(&idl.InterfaceDesc{IID: "IWidget", Name: "IWidget", Remotable: true, Methods: []idl.MethodDesc{
		{Name: "Next", Result: node},
		{Name: "Link", Params: []idl.ParamDesc{{Name: "n", Dir: idl.In, Type: node}}, Result: idl.TVoid},
	}})
	ifaces.Register(&idl.InterfaceDesc{IID: "IMaker", Name: "IMaker", Remotable: true, Methods: []idl.MethodDesc{
		{Name: "Make", Result: idl.InterfaceType("IWidget")},
	}})
	object := func() com.Object {
		return com.ObjectFunc(func(*com.Call) ([]idl.Value, error) { return nil, nil })
	}
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{ID: "CLSID_Widget", Name: "Widget", Interfaces: []string{"IWidget"}, New: object,
		State: &com.StateDesc{Bytes: 16, Reads: []string{"Next"}, Writes: []string{"Link"}}})
	classes.Register(&com.Class{ID: "CLSID_Maker", Name: "Maker", Interfaces: []string{"IMaker"}, New: object,
		Activations: []com.CLSID{"CLSID_Widget"}})
	app := &com.App{
		Name: "recursive", Classes: classes, Interfaces: ifaces,
		MainActivations: []com.CLSID{"CLSID_Maker"},
		Main:            func(*com.Env, string, int64) error { return nil },
	}

	a := New(app)
	if err := a.EnableAlias(); err != nil {
		t.Fatal(err)
	}
	if !a.Reach.HasEdge("Maker", "Widget") || !a.Alias.PredictsTransfer("Maker", "Widget") {
		t.Errorf("Maker -> Widget: reach edge %v, opaque transfer %v; want both",
			a.Reach.HasEdge("Maker", "Widget"), a.Alias.PredictsTransfer("Maker", "Widget"))
	}
	st, err := staticanal.Analyze(app, a.Image)
	if err != nil {
		t.Fatal(err)
	}
	for _, ir := range st.Interfaces {
		if ir.IID == "IWidget" && !ir.Opaque {
			t.Error("IWidget passes an opaque payload beside the cycle, and the constraint analysis missed it")
		}
	}
	rg, err := reach.Scan(a.Image, app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := purity.Scan(a.Image, app, rg); err != nil {
		t.Fatal(err)
	}
	if _, err := alias.Scan(a.Image, app, rg); err != nil {
		t.Fatal(err)
	}
}

// TestScanAllocs budgets each static scan's objects, at the count
// measured when the closures moved to dense class ids plus 5 %. Every
// scan used to re-sort string-keyed maps on each pass, copy the class
// registry and format provenance whether or not a fact was new: alias.Scan
// alone allocated 120,217 objects on octarine.
//
//lint:allow paralleltest Mallocs is process-wide
func TestScanAllocs(t *testing.T) {
	for _, c := range []struct {
		app                                   string
		static, reach, purity, refined, alias uint64
	}{
		{"octarine", 838, 290, 204, 29, 297},
		{"synth:shared-state:1:4", 125, 104, 31, 5, 54},
	} {
		app, err := scenario.NewApp(c.app)
		if err != nil {
			t.Fatal(err)
		}
		img := binimg.BuildImage(app)
		rg, err := reach.Scan(img, app)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := purity.Scan(img, app, rg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			name   string
			budget uint64
			run    func() error
		}{
			{"staticanal.Analyze", c.static, func() error { _, err := staticanal.Analyze(app, img); return err }},
			{"reach.Scan", c.reach, func() error { _, err := reach.Scan(img, app); return err }},
			{"purity.Scan", c.purity, func() error { _, err := purity.Scan(img, app, rg); return err }},
			{"purity.Report.Refined", c.refined, func() error { pr.Refined(func(a, b string) bool { return a < b }); return nil }},
			{"alias.Scan", c.alias, func() error { _, err := alias.Scan(img, app, rg); return err }},
		} {
			objects, _ := allocated(t, s.run)
			t.Logf("%s on %s: %d objects", s.name, c.app, objects)
			if objects > s.budget {
				t.Errorf("%s on %s allocated %d objects, budget %d", s.name, c.app, objects, s.budget)
			}
		}
	}
}
