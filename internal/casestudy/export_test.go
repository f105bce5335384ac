package casestudy

// The literal builders of the shared datasets, for the external
// read-only test.
var (
	MinerRecords   = minerRecords
	DecoderRecords = decoderRecords
	FPGARecords    = fpgaRecords
	GPURecords     = gpuRecords
)
