package casestudy

import (
	"fmt"

	"accelwall/internal/csr"
	"accelwall/internal/gains"
)

// Decoder is one published video decoder ASIC (Section IV-A, Figure 4),
// modeled on the twelve ISSCC/VLSI/JSSC/ESSCIRC chips the paper evaluates
// from 2006 (180 nm, H.264 HDTV) to 2017 (40 nm, 8K HEVC).
type Decoder struct {
	Pub     string // publication venue + year label, e.g. "ISSCC2006"
	Year    float64
	NodeNM  float64
	DieMM2  float64
	FreqGHz float64
	PowerW  float64
	MPixS   float64 // decoding throughput, MPixels/s
	MPixJ   float64 // energy efficiency, MPixels/J
	// Hardware budget (Figure 4b). Zero values mean the publication did
	// not disclose on-chip SRAM sizes; such chips are excluded from the
	// hardware plot, as in the paper.
	CoreKGates float64
	SRAMKb     float64
}

// Transistors estimates the chip's transistor count from its disclosed
// NAND-gate and SRAM budgets (4 transistors per gate, 6T bit cells),
// following the estimation procedure of Figure 4b.
func (d Decoder) Transistors() float64 {
	return d.CoreKGates*1e3*4 + d.SRAMKb*1e3*6
}

// HasHardwareData reports whether the publication disclosed enough to
// appear in the Figure 4b hardware-budget panel.
func (d Decoder) HasHardwareData() bool { return d.CoreKGates > 0 && d.SRAMKb > 0 }

// Decoders returns the video decoder dataset in chronological order. The
// gain magnitudes reproduce the paper's aggregates: up to 64× decoding
// throughput and 34× energy efficiency over the ISSCC2006 baseline, with
// specialization returns that peak mildly above 1 mid-decade and fall
// below 1 for the best-performing chips. The slice is built once and
// shared: callers must not modify it.
func Decoders() []Decoder { return decoders }

// decoders is the video decoder dataset, built once from its literal.
var decoders = decoderRecords()

// decoderRecords builds the video decoder dataset.
func decoderRecords() []Decoder {
	return []Decoder{
		{Pub: "ISSCC2006", Year: 2006, NodeNM: 180, DieMM2: 7.7, FreqGHz: 0.10, PowerW: 0.35, MPixS: 30, MPixJ: 85, CoreKGates: 160, SRAMKb: 4.5},
		{Pub: "ISSCC2007", Year: 2007, NodeNM: 130, DieMM2: 7.0, FreqGHz: 0.12, PowerW: 0.32, MPixS: 75, MPixJ: 238, CoreKGates: 252, SRAMKb: 16},
		{Pub: "VLSI2009", Year: 2009, NodeNM: 90, DieMM2: 6.5, FreqGHz: 0.15, PowerW: 0.38, MPixS: 180, MPixJ: 480, CoreKGates: 410, SRAMKb: 32},
		{Pub: "ISSCC2010", Year: 2010, NodeNM: 65, DieMM2: 6.0, FreqGHz: 0.20, PowerW: 0.51, MPixS: 380, MPixJ: 750, CoreKGates: 600, SRAMKb: 80},
		{Pub: "JSSC2011", Year: 2011, NodeNM: 65, DieMM2: 8.0, FreqGHz: 0.22, PowerW: 0.65, MPixS: 510, MPixJ: 780, CoreKGates: 880, SRAMKb: 160},
		{Pub: "ISSCC2011", Year: 2011.5, NodeNM: 65, DieMM2: 9.0, FreqGHz: 0.25, PowerW: 0.75, MPixS: 600, MPixJ: 800, CoreKGates: 1000, SRAMKb: 250},
		{Pub: "ISSCC2012", Year: 2012, NodeNM: 40, DieMM2: 9.0, FreqGHz: 0.28, PowerW: 0.87, MPixS: 960, MPixJ: 1100, CoreKGates: 1400, SRAMKb: 320},
		{Pub: "ISSCC2013", Year: 2013, NodeNM: 40, DieMM2: 12, FreqGHz: 0.30, PowerW: 1.04, MPixS: 1200, MPixJ: 1150, CoreKGates: 1800, SRAMKb: 500},
		{Pub: "ESSCIRC2014", Year: 2014, NodeNM: 28, DieMM2: 5.0, FreqGHz: 0.30, PowerW: 0.74, MPixS: 1260, MPixJ: 1700},
		{Pub: "JSSC2016", Year: 2016, NodeNM: 28, DieMM2: 6.0, FreqGHz: 0.35, PowerW: 0.74, MPixS: 1500, MPixJ: 2040, CoreKGates: 2500, SRAMKb: 800},
		{Pub: "ESSCIRC2016", Year: 2016.5, NodeNM: 28, DieMM2: 8.0, FreqGHz: 0.35, PowerW: 0.57, MPixS: 1650, MPixJ: 2890},
		{Pub: "JSSC2017", Year: 2017, NodeNM: 40, DieMM2: 20, FreqGHz: 0.40, PowerW: 0.69, MPixS: 1920, MPixJ: 1450, CoreKGates: 4000, SRAMKb: 1400},
	}
}

// VideoLeakShare is the leakage calibration of the decoder study. Fixed-
// function decoder ASICs are dynamic-power dominated, so it is far below
// the general-purpose default of package gains.
const VideoLeakShare = 0.05

// videoModel returns the gains model used for the decoder study.
func videoModel() *gains.Model {
	m := gains.NewModel(nil)
	m.LeakShare = VideoLeakShare
	return m
}

// decoderObservations converts the dataset for the given target.
func decoderObservations(target gains.Target) []csr.Observation {
	decs := Decoders()
	out := make([]csr.Observation, 0, len(decs))
	for _, d := range decs {
		gain := d.MPixS
		if target == gains.TargetEfficiency {
			gain = d.MPixJ
		}
		// Decoder chips run far below any thermal envelope, so the budget
		// model's TDP input is a nominal 5 W ceiling (the paper similarly
		// adopts a 7 W budget "10x higher than the highest power measure");
		// the measured power enters only through the MPixels/J gains.
		out = append(out, csr.Observation{
			Name: d.Pub,
			Year: d.Year,
			Chip: gains.Config{NodeNM: d.NodeNM, DieMM2: d.DieMM2, TDPW: 5, FreqGHz: d.FreqGHz},
			Gain: gain,
		})
	}
	return out
}

// Fig4Row is one decoder of Figure 4a (throughput) or 4c (efficiency):
// relative gain and CSR versus the ISSCC2006 baseline.
type Fig4Row struct {
	Pub     string
	Year    float64
	NodeNM  float64
	RelGain float64
	CSR     float64
}

// Fig4 reproduces Figure 4a (target = throughput: MPixels/s scaling) or
// Figure 4c (target = efficiency: MPixels/J scaling) with per-chip CSR.
func Fig4(target gains.Target) ([]Fig4Row, error) {
	return Fig4With(nil, target)
}

// Fig4With is Fig4 evaluated against a caller-supplied gains model (nil
// selects the study's default), so the Monte Carlo uncertainty engine can
// rerun the study under a refitted budget and jittered scaling table. The
// model's LeakShare should be VideoLeakShare to match the study's
// calibration.
func Fig4With(m *gains.Model, target gains.Target) ([]Fig4Row, error) {
	if m == nil {
		m = videoModel()
	}
	obs := decoderObservations(target)
	rows, err := csr.Analyze(m, target, obs, 0)
	if err != nil {
		return nil, fmt.Errorf("casestudy: fig4: %w", err)
	}
	decs := Decoders()
	out := make([]Fig4Row, len(rows))
	for i, r := range rows {
		out[i] = Fig4Row{Pub: r.Name, Year: r.Year, NodeNM: decs[i].NodeNM, RelGain: r.Gain, CSR: r.CSR}
	}
	return out, nil
}

// Fig4bRow is one decoder of the hardware-budget panel (Figure 4b):
// relative transistor count (versus the baseline chip) and frequency.
type Fig4bRow struct {
	Pub            string
	NodeNM         float64
	RelTransistors float64
	FreqMHz        float64
}

// Fig4b reproduces the Figure 4b hardware panel. Chips that did not
// disclose SRAM sizes are omitted, as in the paper ("not all works are
// presented ... since some works did not specify the size of on-chip
// SRAMs").
func Fig4b() ([]Fig4bRow, error) {
	decs := Decoders()
	base := decs[0]
	if !base.HasHardwareData() {
		return nil, fmt.Errorf("casestudy: fig4b: baseline %s lacks hardware data", base.Pub)
	}
	var out []Fig4bRow
	for _, d := range decs {
		if !d.HasHardwareData() {
			continue
		}
		out = append(out, Fig4bRow{
			Pub:            d.Pub,
			NodeNM:         d.NodeNM,
			RelTransistors: d.Transistors() / base.Transistors(),
			FreqMHz:        d.FreqGHz * 1000,
		})
	}
	return out, nil
}
