//go:build amd64 && !purego

package hmm

// Vector kernels for the forward step. All keep the canonical rounding
// order defined in kernel.go: lanes run across destination states j, the
// per-j reduction over i stays a single sequential multiply-then-add chain
// (no FMA), and the AVX-512 kernels accumulate each scale sum in one 8-lane
// register folded by the reduceLanes tree.

// dotEmitScaleAVX512 computes next = (alphaᵀA) ∘ bcol over the flat
// row-major transition slab a (n rows × np zero-padded columns) and returns
// the canonical scale sum. bcol and next must hold np entries.
//
//go:noescape
func dotEmitScaleAVX512(alpha, a, bcol, next *float64, n, np int) float64

// fusedStepAVX512 advances the ng ∈ {2,3,4} normalised forward vectors
// alphas[0:ng] by one observation in a single pass over a: each 16-lane slab
// block is loaded once per predecessor state and multiplied into every
// window of the group. Window w's emitted dots land in next[w*np:(w+1)*np]
// (next must hold groupMax·np entries), its canonical scale sum in
// scales[w], and, when that sum is non-zero, alphas[w][0:n] is overwritten
// with the normalised vector next·(1/scale); the n%8 tail is stored under a
// mask, so the alpha slots need no padding.
//
//go:noescape
func fusedStepAVX512(alphas *[groupMax]*float64, a, bcol, next *float64, scales *[groupMax]float64, ng, n, np int)

// forwardDotsAVX2 computes next[j] = Σ_i alpha[i]·a[i*np+j] for all np padded
// destination states; the emission multiply and scale sum run in Go
// (emitScale).
//
//go:noescape
func forwardDotsAVX2(alpha, a, next *float64, n, np int)

// Training kernels for the Baum–Welch E-step (train.go); kernel.go's header
// gives the lane layout and order each one keeps.

// backwardAVX512 and backwardAVX2 store cur[i] = (Σ_j (at[j*np+i]·bcol[j])·
// next[j]) / scale for all np padded source states i over the n×np
// transposed slab at, summing over destination states j in ascending order.
//
//go:noescape
func backwardAVX512(next, at, bcol, cur *float64, scale float64, n, np int)

//go:noescape
func backwardAVX2(next, at, bcol, cur *float64, scale float64, n, np int)

// xiNormsAVX512 and xiNormsAVX2 store in norms[l] the chain
// Σ_i Σ_j ((aT[i*8+l]·a[i*np+j])·bT[j*8+l])·betaT[j*8+l], ascending in i
// then j, for each of the xiLanes lanes l of the transposed n×8 blocks.
//
//go:noescape
func xiNormsAVX512(aT, a, bT, betaT *float64, norms *[xiLanes]float64, n, np int)

//go:noescape
func xiNormsAVX2(aT, a, bT, betaT *float64, norms *[xiLanes]float64, n, np int)

// xiAccumAVX512 and xiAccumAVX2 add (((alpha[i]·a[i*np+j])·bcol[j])·
// next[j]) / xiNorm to aNum[i*np+j] for all np padded destination states j
// of every row i < n with alpha[i] ≠ 0. A caller that owns rows [r0, r1)
// passes alpha, a and aNum from row r0 on and n = r1 − r0 ≥ 1.
//
//go:noescape
func xiAccumAVX512(alpha, a, bcol, next, aNum *float64, xiNorm float64, n, np int)

//go:noescape
func xiAccumAVX2(alpha, a, bcol, next, aNum *float64, xiNorm float64, n, np int)

// cpuidRaw executes CPUID with the given leaf/subleaf; xgetbv0 reads XCR0.
func cpuidRaw(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

var kernelLevel = detectKernel()

func detectKernel() int {
	maxLeaf, _, _, _ := cpuidRaw(0, 0)
	if maxLeaf < 7 {
		return kernelGo
	}
	_, _, c1, _ := cpuidRaw(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return kernelGo
	}
	xlo, _ := xgetbv0()
	_, b7, _, _ := cpuidRaw(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
		// XCR0: SSE|AVX state for AVX2; opmask|ZMM_Hi256|Hi16_ZMM on top
		// for AVX-512.
		avxState    = 0x6
		avx512State = 0xe0
	)
	if b7&avx512fBit != 0 && xlo&(avxState|avx512State) == avxState|avx512State {
		return kernelAVX512
	}
	if b7&avx2Bit != 0 && xlo&avxState == avxState {
		return kernelAVX2
	}
	return kernelGo
}
