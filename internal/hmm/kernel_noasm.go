//go:build !amd64 || purego

package hmm

var kernelLevel = kernelGo

// Stubs keep kernel.go's dispatch switch compiling on platforms without the
// vector kernels; kernelLevel never selects them here.

func dotEmitScaleAVX512(alpha, a, bcol, next *float64, n, np int) float64 {
	panic("hmm: AVX-512 kernel unavailable")
}

func fusedStepAVX512(alphas *[groupMax]*float64, a, bcol, next *float64, scales *[groupMax]float64, ng, n, np int) {
	panic("hmm: AVX-512 kernel unavailable")
}

func forwardDotsAVX2(alpha, a, next *float64, n, np int) {
	panic("hmm: AVX2 kernel unavailable")
}

func backwardAVX512(next, at, bcol, cur *float64, scale float64, n, np int) {
	panic("hmm: AVX-512 kernel unavailable")
}

func backwardAVX2(next, at, bcol, cur *float64, scale float64, n, np int) {
	panic("hmm: AVX2 kernel unavailable")
}

func xiNormsAVX512(aT, a, bT, betaT *float64, norms *[xiLanes]float64, n, np int) {
	panic("hmm: AVX-512 kernel unavailable")
}

func xiNormsAVX2(aT, a, bT, betaT *float64, norms *[xiLanes]float64, n, np int) {
	panic("hmm: AVX2 kernel unavailable")
}

func xiAccumAVX512(alpha, a, bcol, next, aNum *float64, xiNorm float64, n, np int) {
	panic("hmm: AVX-512 kernel unavailable")
}

func xiAccumAVX2(alpha, a, bcol, next, aNum *float64, xiNorm float64, n, np int) {
	panic("hmm: AVX2 kernel unavailable")
}
