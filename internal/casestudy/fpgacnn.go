package casestudy

import (
	"fmt"

	"accelwall/internal/csr"
	"accelwall/internal/gains"
)

// CNNModel identifies which network an FPGA implementation accelerates.
type CNNModel int

// The two ImageNet-milestone models of Section IV-C.
const (
	AlexNet CNNModel = iota
	VGG16
)

// String returns the model name.
func (m CNNModel) String() string {
	if m == VGG16 {
		return "VGG-16"
	}
	return "AlexNet"
}

// FPGAImpl is one published FPGA CNN implementation (Figure 8), modeled on
// the FPGA/ISCA/ICCAD/FPL/FCCM papers of 2015–2018, all on 28 nm or 20 nm
// FPGAs.
type FPGAImpl struct {
	Pub     string
	Model   CNNModel
	Year    float64
	NodeNM  float64 // 28 or 20
	FreqGHz float64
	GOPS    float64 // throughput, giga-operations per second
	GOPSJ   float64 // energy efficiency, GOPS per watt = GOP per joule
	// Resource utilization percentages (Figure 8b).
	UtilLUT  float64
	UtilDSP  float64
	UtilBRAM float64
}

// Utilization returns the mean fraction of FPGA resources the design uses.
// The paper attributes the best designs' gains to "better physical budget
// (higher utilization of FPGA resources)", so utilization belongs to the
// physical layer, not the specialization stack.
func (f FPGAImpl) Utilization() float64 {
	return (f.UtilLUT + f.UtilDSP + f.UtilBRAM) / 300
}

// fpgaDie returns the die size of the era's typical CNN-capable FPGA.
func fpgaDie(nodeNM float64) float64 {
	if nodeNM <= 20 {
		return 560 // Arria 10 / UltraScale class
	}
	return 600 // Virtex-7 / Stratix V class
}

// Config folds resource utilization into the CMOS potential input as
// effective die area: an FPGA design only "owns" the fabric it instantiates.
func (f FPGAImpl) Config() gains.Config {
	return gains.Config{
		NodeNM:  f.NodeNM,
		DieMM2:  fpgaDie(f.NodeNM) * f.Utilization(),
		TDPW:    35,
		FreqGHz: f.FreqGHz,
	}
}

// FPGAImpls returns the CNN implementation dataset for one model, in
// chronological order. Aggregates match the paper: AlexNet throughput and
// efficiency improve ~24× and ~14×; VGG-16 — whose model is 3× larger and
// needs ~20× the operations per image — improves only ~9× and ~7×. CSR
// rises across the series (CNNs are an emerging domain where algorithmic
// innovation still pays) but is flat-to-lower for the best chips, whose
// edge is higher resource utilization. The slices are built once and
// shared: callers must not modify them.
func FPGAImpls(model CNNModel) []FPGAImpl {
	if model == VGG16 {
		return vgg16Impls
	}
	return alexNetImpls
}

// alexNetImpls and vgg16Impls are the FPGA CNN datasets, built once from
// their literals.
var (
	alexNetImpls = fpgaRecords(AlexNet)
	vgg16Impls   = fpgaRecords(VGG16)
)

// fpgaRecords builds the CNN implementation dataset for one model.
func fpgaRecords(model CNNModel) []FPGAImpl {
	if model == VGG16 {
		return []FPGAImpl{
			{Pub: "FPGA2016", Model: VGG16, Year: 2016.0, NodeNM: 28, FreqGHz: 0.10, GOPS: 80, GOPSJ: 4.0, UtilLUT: 55, UtilDSP: 50, UtilBRAM: 45},
			{Pub: "FPGA2016b", Model: VGG16, Year: 2016.1, NodeNM: 28, FreqGHz: 0.11, GOPS: 130, GOPSJ: 5.8, UtilLUT: 60, UtilDSP: 55, UtilBRAM: 50},
			{Pub: "FPGA2016c", Model: VGG16, Year: 2016.2, NodeNM: 28, FreqGHz: 0.12, GOPS: 185, GOPSJ: 7.6, UtilLUT: 65, UtilDSP: 60, UtilBRAM: 55},
			{Pub: "ICCAD2016", Model: VGG16, Year: 2016.8, NodeNM: 28, FreqGHz: 0.13, GOPS: 260, GOPSJ: 9.8, UtilLUT: 70, UtilDSP: 65, UtilBRAM: 60},
			{Pub: "FCCM2017", Model: VGG16, Year: 2017.3, NodeNM: 20, FreqGHz: 0.14, GOPS: 360, GOPSJ: 13.0, UtilLUT: 62, UtilDSP: 60, UtilBRAM: 58},
			{Pub: "FPGA2017", Model: VGG16, Year: 2017.0, NodeNM: 20, FreqGHz: 0.15, GOPS: 430, GOPSJ: 16.0, UtilLUT: 66, UtilDSP: 65, UtilBRAM: 64},
			{Pub: "FPGA2017b", Model: VGG16, Year: 2017.1, NodeNM: 20, FreqGHz: 0.15, GOPS: 520, GOPSJ: 19.5, UtilLUT: 72, UtilDSP: 70, UtilBRAM: 68},
			{Pub: "FPGA2017c", Model: VGG16, Year: 2017.2, NodeNM: 20, FreqGHz: 0.16, GOPS: 600, GOPSJ: 23.0, UtilLUT: 74, UtilDSP: 72, UtilBRAM: 70},
			{Pub: "FPGA2018", Model: VGG16, Year: 2018.0, NodeNM: 20, FreqGHz: 0.15, GOPS: 720, GOPSJ: 28.0, UtilLUT: 72, UtilDSP: 70, UtilBRAM: 68},
		}
	}
	return []FPGAImpl{
		{Pub: "FPGA2015", Model: AlexNet, Year: 2015.0, NodeNM: 28, FreqGHz: 0.10, GOPS: 40, GOPSJ: 2.0, UtilLUT: 37, UtilDSP: 35, UtilBRAM: 33},
		{Pub: "FPGA2016", Model: AlexNet, Year: 2016.0, NodeNM: 28, FreqGHz: 0.12, GOPS: 108, GOPSJ: 4.6, UtilLUT: 47, UtilDSP: 45, UtilBRAM: 43},
		{Pub: "FPGA2016b", Model: AlexNet, Year: 2016.1, NodeNM: 28, FreqGHz: 0.15, GOPS: 223, GOPSJ: 7.8, UtilLUT: 57, UtilDSP: 55, UtilBRAM: 53},
		{Pub: "FPL2016", Model: AlexNet, Year: 2016.6, NodeNM: 20, FreqGHz: 0.20, GOPS: 444, GOPSJ: 12.0, UtilLUT: 57, UtilDSP: 55, UtilBRAM: 53},
		{Pub: "ICCAD2016", Model: AlexNet, Year: 2016.8, NodeNM: 28, FreqGHz: 0.15, GOPS: 308, GOPSJ: 9.5, UtilLUT: 62, UtilDSP: 60, UtilBRAM: 58},
		{Pub: "FPGA2017", Model: AlexNet, Year: 2017.0, NodeNM: 20, FreqGHz: 0.24, GOPS: 838, GOPSJ: 20.0, UtilLUT: 72, UtilDSP: 70, UtilBRAM: 68},
		{Pub: "FPGA2017b", Model: AlexNet, Year: 2017.1, NodeNM: 20, FreqGHz: 0.25, GOPS: 861, GOPSJ: 24.0, UtilLUT: 77, UtilDSP: 75, UtilBRAM: 73},
		{Pub: "FPGA2017w", Model: AlexNet, Year: 2017.2, NodeNM: 20, FreqGHz: 0.28, GOPS: 960, GOPSJ: 28.0, UtilLUT: 82, UtilDSP: 80, UtilBRAM: 78},
		{Pub: "ISCA2017", Model: AlexNet, Year: 2017.4, NodeNM: 28, FreqGHz: 0.17, GOPS: 474, GOPSJ: 13.5, UtilLUT: 72, UtilDSP: 70, UtilBRAM: 68},
		{Pub: "ISCA2017b", Model: AlexNet, Year: 2017.5, NodeNM: 28, FreqGHz: 0.20, GOPS: 858, GOPSJ: 16.0, UtilLUT: 77, UtilDSP: 75, UtilBRAM: 73},
		{Pub: "ISCA2017c", Model: AlexNet, Year: 2017.5, NodeNM: 28, FreqGHz: 0.18, GOPS: 520, GOPSJ: 14.0, UtilLUT: 74, UtilDSP: 72, UtilBRAM: 70},
	}
}

// Fig8Row is one implementation of Figure 8a (throughput) or 8c
// (efficiency): relative gain and CSR versus the series' first entry.
type Fig8Row struct {
	Pub     string
	Model   CNNModel
	Year    float64
	NodeNM  float64
	RelGain float64
	CSR     float64
}

// Fig8 reproduces Figure 8a/8c for one CNN model and target function.
func Fig8(model CNNModel, target gains.Target) ([]Fig8Row, error) {
	impls := FPGAImpls(model)
	obs := make([]csr.Observation, 0, len(impls))
	for _, f := range impls {
		gain := f.GOPS
		if target == gains.TargetEfficiency {
			gain = f.GOPSJ
		}
		obs = append(obs, csr.Observation{Name: f.Pub, Year: f.Year, Chip: f.Config(), Gain: gain})
	}
	rows, err := csr.Analyze(gains.NewModel(nil), target, obs, 0)
	if err != nil {
		return nil, fmt.Errorf("casestudy: fig8 %v: %w", model, err)
	}
	out := make([]Fig8Row, len(rows))
	for i, r := range rows {
		out[i] = Fig8Row{Pub: r.Name, Model: model, Year: r.Year, NodeNM: impls[i].NodeNM, RelGain: r.Gain, CSR: r.CSR}
	}
	return out, nil
}

// Fig8bRow is one implementation of the resource panel (Figure 8b).
type Fig8bRow struct {
	Pub      string
	Model    CNNModel
	UtilLUT  float64
	UtilDSP  float64
	UtilBRAM float64
	FreqMHz  float64
}

// Fig8b reproduces the resource-utilization and frequency panel of
// Figure 8b for one CNN model.
func Fig8b(model CNNModel) []Fig8bRow {
	impls := FPGAImpls(model)
	out := make([]Fig8bRow, 0, len(impls))
	for _, f := range impls {
		out = append(out, Fig8bRow{
			Pub:      f.Pub,
			Model:    model,
			UtilLUT:  f.UtilLUT,
			UtilDSP:  f.UtilDSP,
			UtilBRAM: f.UtilBRAM,
			FreqMHz:  f.FreqGHz * 1000,
		})
	}
	return out
}
