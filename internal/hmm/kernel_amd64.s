//go:build amd64 && !purego

#include "textflag.h"

// Forward-step kernels. The rounding-order contract (kernel.go) is: per
// destination state j, the reduction over predecessor states i is one
// sequential multiply-then-add chain (no FMA), and the scale sum places
// element j in lane j mod 8 with the reduceLanes fold tree. Every kernel
// vectorises across j only, so every lane replays the scalar chain exactly.
//
// The Scorer pads its slabs to np = roundup16(n) destination states with
// zero columns (kernel.go): a zero transition column times any alpha is +0.0
// and adds exactly nothing to the scale lanes, so the kernels run unmasked
// full-width blocks with no tail cases. The only masked access is the fused
// step's store of a normalised vector into its unpadded ring slot.

// func dotEmitScaleAVX512(alpha, a, bcol, next *float64, n, np int) float64
//
// next = (alphaᵀ A) ∘ bcol over the row-major n×np slab a; returns the
// canonical laned scale sum. Destination states are covered by passes of 48
// (6 zmm blocks — six independent add chains for ILP) and the np%48
// remainder (0, 16, or 32 padded lanes) by passes of 16 (2 blocks).
TEXT ·dotEmitScaleAVX512(SB), NOSPLIT, $0-56
	MOVQ alpha+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ bcol+16(FP), DX
	MOVQ next+24(FP), R8
	MOVQ n+32(FP), R9
	MOVQ np+40(FP), BX

	MOVQ BX, R13
	SHLQ $3, R13              // row stride in bytes
	VPXORQ Z9, Z9, Z9         // scale lane accumulator
	XORQ R10, R10             // jb: first destination state of the pass

big_check:
	MOVQ BX, CX
	SUBQ R10, CX              // padded states remaining
	CMPQ CX, $48
	JLT small_check

	// 6-block pass covering j = jb .. jb+47.
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	LEAQ (SI)(R10*8), R12     // &a[0*np + jb]
	XORQ R11, R11             // i

big_i:
	VBROADCASTSD (DI)(R11*8), Z6
	VMULPD (R12), Z6, Z7
	VADDPD Z7, Z0, Z0
	VMULPD 64(R12), Z6, Z7
	VADDPD Z7, Z1, Z1
	VMULPD 128(R12), Z6, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(R12), Z6, Z7
	VADDPD Z7, Z3, Z3
	VMULPD 256(R12), Z6, Z7
	VADDPD Z7, Z4, Z4
	VMULPD 320(R12), Z6, Z7
	VADDPD Z7, Z5, Z5
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R9
	JLT big_i

	// Emission multiply, store, and ascending-block scale accumulation.
	VMULPD (DX)(R10*8), Z0, Z0
	VMOVUPD Z0, (R8)(R10*8)
	VADDPD Z0, Z9, Z9
	VMULPD 64(DX)(R10*8), Z1, Z1
	VMOVUPD Z1, 64(R8)(R10*8)
	VADDPD Z1, Z9, Z9
	VMULPD 128(DX)(R10*8), Z2, Z2
	VMOVUPD Z2, 128(R8)(R10*8)
	VADDPD Z2, Z9, Z9
	VMULPD 192(DX)(R10*8), Z3, Z3
	VMOVUPD Z3, 192(R8)(R10*8)
	VADDPD Z3, Z9, Z9
	VMULPD 256(DX)(R10*8), Z4, Z4
	VMOVUPD Z4, 256(R8)(R10*8)
	VADDPD Z4, Z9, Z9
	VMULPD 320(DX)(R10*8), Z5, Z5
	VMOVUPD Z5, 320(R8)(R10*8)
	VADDPD Z5, Z9, Z9

	ADDQ $48, R10
	JMP big_check

small_check:
	TESTQ CX, CX
	JLE reduce

small_pass:
	// 2-block pass covering j = jb .. jb+15.
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	LEAQ (SI)(R10*8), R12
	XORQ R11, R11

small_i:
	VBROADCASTSD (DI)(R11*8), Z6
	VMULPD (R12), Z6, Z7
	VADDPD Z7, Z0, Z0
	VMULPD 64(R12), Z6, Z7
	VADDPD Z7, Z1, Z1
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R9
	JLT small_i

	VMULPD (DX)(R10*8), Z0, Z0
	VMOVUPD Z0, (R8)(R10*8)
	VADDPD Z0, Z9, Z9
	VMULPD 64(DX)(R10*8), Z1, Z1
	VMOVUPD Z1, 64(R8)(R10*8)
	VADDPD Z1, Z9, Z9

	ADDQ $16, R10
	CMPQ R10, BX
	JLT small_pass

reduce:
	// reduceLanes fold tree: high half, high quarter, final pair.
	VEXTRACTF64X4 $1, Z9, Y10
	VADDPD Y10, Y9, Y9
	VEXTRACTF128 $1, Y9, X10
	VADDPD X10, X9, X9
	VUNPCKHPD X9, X9, X10
	VADDSD X10, X9, X9
	VZEROUPPER
	MOVSD X9, ret+48(FP)
	RET

// Fused group step. Every move between general and vector registers or
// memory here is VEX-encoded: a legacy SSE instruction while the zmm upper
// halves are dirty costs a state transition, which doubled the step's time.
// Two to four windows share each load of the slab: per
// predecessor i the 16-lane block a[i*np+jb : i*np+jb+16] is loaded once
// into Z16/Z17 and multiplied into every window of the group, so each
// window keeps two accumulators (Z0..Z7) and each (window, j) lane still
// runs its own ascending-i multiply-then-add chain. Z8..Z11 hold the
// windows' scale lanes, Z12..Z15 the broadcast alpha_w[i].

// MACC folds one window's broadcast alpha (B) into its two accumulators.
#define MACC(B, ACC0, ACC1) \
	VMULPD Z16, B, Z18; \
	VADDPD Z18, ACC0, ACC0; \
	VMULPD Z17, B, Z19; \
	VADDPD Z19, ACC1, ACC1

// EMIT applies the emission block (Z16/Z17) to one window's accumulators,
// stores them at DST0/DST1 and adds them, low block first, to its scale
// lanes S.
#define EMIT(ACC0, ACC1, S, DST0, DST1) \
	VMULPD Z16, ACC0, ACC0; \
	VMULPD Z17, ACC1, ACC1; \
	VMOVUPD ACC0, DST0; \
	VMOVUPD ACC1, DST1; \
	VADDPD ACC0, S, S; \
	VADDPD ACC1, S, S

// FOLD reduces scale lanes with the reduceLanes tree into the low lane of
// X; Y and X name the low halves of the same register, Y7/X7 is scratch.
#define FOLD(Z, Y, X) \
	VEXTRACTF64X4 $1, Z, Y7; \
	VADDPD Y7, Y, Y; \
	VEXTRACTF128 $1, Y, X7; \
	VADDPD X7, X, X; \
	VUNPCKHPD X, X, X7; \
	VADDSD X7, X, X

// NEXTROW steps the slab walker to row i+1 and loops to L while i < n.
#define NEXTROW(L) \
	ADDQ R13, R12; \
	INCQ R11; \
	CMPQ R11, R9; \
	JLT L

// func fusedStepAVX512(alphas *[4]*float64, a, bcol, next *float64, scales *[4]float64, ng, n, np int)
//
// Advances the ng ∈ {2,3,4} windows alphas[0:ng] by one observation in one
// pass over the n×np slab a. Window w's transition dots times bcol land in
// next[w*np : (w+1)*np] (next holds 4·np entries; windows at or beyond ng
// receive zeros), its canonical scale sum in scales[w], and, when that sum
// is non-zero, its normalised vector next·(1/scale) back in alphas[w][0:n]
// with the n%8 tail stored under a mask, so alpha slots need no padding.
TEXT ·fusedStepAVX512(SB), NOSPLIT, $0-64
	MOVQ alphas+0(FP), R12
	MOVQ 0(R12), AX
	MOVQ 8(R12), BX
	MOVQ 16(R12), CX
	MOVQ 24(R12), R8
	MOVQ a+8(FP), SI          // &a[jb]
	MOVQ bcol+16(FP), DX      // &bcol[jb]
	MOVQ next+24(FP), DI      // &next[jb] of window 0; window w's is w·R13 on
	MOVQ n+48(FP), R9
	MOVQ np+56(FP), R10       // padded states remaining
	MOVQ R10, R13
	SHLQ $3, R13              // row stride in bytes
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11

f_block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ SI, R12
	XORQ R11, R11
	CMPQ ng+40(FP), $4
	JEQ f_g4
	CMPQ ng+40(FP), $3
	JEQ f_g3

f_g2:
	VMOVUPD (R12), Z16
	VMOVUPD 64(R12), Z17
	VBROADCASTSD (AX)(R11*8), Z12
	VBROADCASTSD (BX)(R11*8), Z13
	MACC(Z12, Z0, Z1)
	MACC(Z13, Z2, Z3)
	NEXTROW(f_g2)
	JMP f_emit

f_g3:
	VMOVUPD (R12), Z16
	VMOVUPD 64(R12), Z17
	VBROADCASTSD (AX)(R11*8), Z12
	VBROADCASTSD (BX)(R11*8), Z13
	VBROADCASTSD (CX)(R11*8), Z14
	MACC(Z12, Z0, Z1)
	MACC(Z13, Z2, Z3)
	MACC(Z14, Z4, Z5)
	NEXTROW(f_g3)
	JMP f_emit

f_g4:
	VMOVUPD (R12), Z16
	VMOVUPD 64(R12), Z17
	VBROADCASTSD (AX)(R11*8), Z12
	VBROADCASTSD (BX)(R11*8), Z13
	VBROADCASTSD (CX)(R11*8), Z14
	VBROADCASTSD (R8)(R11*8), Z15
	MACC(Z12, Z0, Z1)
	MACC(Z13, Z2, Z3)
	MACC(Z14, Z4, Z5)
	MACC(Z15, Z6, Z7)
	NEXTROW(f_g4)

f_emit:
	// Idle windows' accumulators are zero, so emitting all four is exact.
	VMOVUPD (DX), Z16
	VMOVUPD 64(DX), Z17
	EMIT(Z0, Z1, Z8, (DI), 64(DI))
	EMIT(Z2, Z3, Z9, (DI)(R13*1), 64(DI)(R13*1))
	EMIT(Z4, Z5, Z10, (DI)(R13*2), 64(DI)(R13*2))
	LEAQ (DI)(R13*2), R12
	EMIT(Z6, Z7, Z11, (R12)(R13*1), 64(R12)(R13*1))

	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $16, R10
	JGT f_block

	FOLD(Z8, Y8, X8)
	FOLD(Z9, Y9, X9)
	FOLD(Z10, Y10, X10)
	FOLD(Z11, Y11, X11)
	MOVQ scales+32(FP), BX
	VMOVSD X8, 0(BX)
	VMOVSD X9, 8(BX)
	VMOVSD X10, 16(BX)
	VMOVSD X11, 24(BX)

	// Normalise window by window: alpha = next·(1/scale). The n%8 tail
	// store is masked to the live lanes, so the slot past n is untouched.
	MOVQ R9, CX
	ANDQ $7, CX
	MOVL $1, R12
	SHLL CX, R12
	DECL R12
	KMOVW R12, K1
	MOVQ R9, R10
	ANDQ $-8, R10             // full 8-lane blocks end here
	MOVQ $0x3FF0000000000000, R12
	VMOVQ R12, X12            // 1.0
	VXORPD X14, X14, X14
	MOVQ alphas+0(FP), AX
	MOVQ next+24(FP), DI
	MOVQ ng+40(FP), CX

f_norm:
	MOVQ (AX), R8
	VMOVSD (BX), X8
	VUCOMISD X14, X8
	JEQ f_norm_next           // scale 0: the window died, alpha is never read
	VDIVSD X8, X12, X13       // inv = 1/scale
	VBROADCASTSD X13, Z13
	XORQ R11, R11
	CMPQ R11, R10
	JGE f_norm_tail

f_norm_j:
	VMULPD (DI)(R11*8), Z13, Z15
	VMOVUPD Z15, (R8)(R11*8)
	ADDQ $8, R11
	CMPQ R11, R10
	JLT f_norm_j

f_norm_tail:
	CMPQ R11, R9
	JGE f_norm_next
	VMULPD (DI)(R11*8), Z13, Z15
	VMOVUPD Z15, K1, (R8)(R11*8)

f_norm_next:
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ R13, DI
	DECQ CX
	JNZ f_norm
	VZEROUPPER
	RET

// func forwardDotsAVX2(alpha, a, next *float64, n, np int)
//
// next[j] = Σ_i alpha[i]·a[i*np+j]; the emission multiply and scale sum run
// in Go (emitScale), which preserves the canonical order. Padded lanes make
// every pass four unmasked ymm blocks (16 states).
TEXT ·forwardDotsAVX2(SB), NOSPLIT, $0-40
	MOVQ alpha+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ next+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ np+32(FP), BX

	MOVQ BX, R13
	SHLQ $3, R13
	XORQ R10, R10

a2_pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(R10*8), R12
	XORQ R11, R11

a2_i:
	VBROADCASTSD (DI)(R11*8), Y6
	VMULPD (R12), Y6, Y7
	VADDPD Y7, Y0, Y0
	VMULPD 32(R12), Y6, Y7
	VADDPD Y7, Y1, Y1
	VMULPD 64(R12), Y6, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R12), Y6, Y7
	VADDPD Y7, Y3, Y3
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R9
	JLT a2_i

	VMOVUPD Y0, (R8)(R10*8)
	VMOVUPD Y1, 32(R8)(R10*8)
	VMOVUPD Y2, 64(R8)(R10*8)
	VMOVUPD Y3, 96(R8)(R10*8)
	ADDQ $16, R10
	CMPQ R10, BX
	JLT a2_pass

	VZEROUPPER
	RET

// Baum–Welch E-step kernels (train.go). Each lane replays one chain of the
// Go level's loops in its order, unfused: the backward sweep runs one lane
// per source state i over the padded transposed slab, the ξ sums one lane
// per destination state j over the padded row-major slab, and the ξ
// normalisers one lane per step over transposed n×8 blocks. Padded lanes of
// the first two only ever reach padded outputs.

// BWACC folds destination state j into one 8-lane block of backward chains:
// ACC += (at_block·b_j)·β_{t+1}[j], with b_j in Z4 and β_{t+1}[j] in Z5.
#define BWACC(SRC, T, ACC) \
	VMULPD SRC, Z4, T; \
	VMULPD Z5, T, T; \
	VADDPD T, ACC, ACC

// func backwardAVX512(next, at, bcol, cur *float64, scale float64, n, np int)
//
// cur[i] = (Σ_j (at[j*np+i]·bcol[j])·next[j]) / scale for all np padded
// source states i. Source states are covered by passes of 32 (4 zmm blocks,
// four independent chains) and the np%32 remainder (0 or 16) by one pass of
// 2 blocks.
TEXT ·backwardAVX512(SB), NOSPLIT, $0-56
	MOVQ next+0(FP), DI
	MOVQ at+8(FP), SI
	MOVQ bcol+16(FP), DX
	MOVQ cur+24(FP), R8
	VBROADCASTSD scale+32(FP), Z15
	MOVQ n+40(FP), R9
	MOVQ np+48(FP), BX
	MOVQ BX, R13
	SHLQ $3, R13              // row stride in bytes
	XORQ R10, R10             // ib: first source state of the pass

bw_check:
	MOVQ BX, CX
	SUBQ R10, CX              // padded states remaining
	CMPQ CX, $32
	JLT bw_tail

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	LEAQ (SI)(R10*8), R12     // &at[0*np + ib]
	XORQ R11, R11             // j

bw_j:
	VBROADCASTSD (DX)(R11*8), Z4
	VBROADCASTSD (DI)(R11*8), Z5
	BWACC((R12), Z6, Z0)
	BWACC(64(R12), Z7, Z1)
	BWACC(128(R12), Z8, Z2)
	BWACC(192(R12), Z9, Z3)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R9
	JLT bw_j

	VDIVPD Z15, Z0, Z0
	VMOVUPD Z0, (R8)(R10*8)
	VDIVPD Z15, Z1, Z1
	VMOVUPD Z1, 64(R8)(R10*8)
	VDIVPD Z15, Z2, Z2
	VMOVUPD Z2, 128(R8)(R10*8)
	VDIVPD Z15, Z3, Z3
	VMOVUPD Z3, 192(R8)(R10*8)
	ADDQ $32, R10
	JMP bw_check

bw_tail:
	TESTQ CX, CX
	JLE bw_done
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	LEAQ (SI)(R10*8), R12
	XORQ R11, R11

bw_tail_j:
	VBROADCASTSD (DX)(R11*8), Z4
	VBROADCASTSD (DI)(R11*8), Z5
	BWACC((R12), Z6, Z0)
	BWACC(64(R12), Z7, Z1)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R9
	JLT bw_tail_j

	VDIVPD Z15, Z0, Z0
	VMOVUPD Z0, (R8)(R10*8)
	VDIVPD Z15, Z1, Z1
	VMOVUPD Z1, 64(R8)(R10*8)

bw_done:
	VZEROUPPER
	RET

// func xiNormsAVX512(aT, a, bT, betaT *float64, norms *[8]float64, n, np int)
//
// norms[l] = Σ_i Σ_j ((aT[i*8+l]·a[i*np+j])·bT[j*8+l])·betaT[j*8+l], one
// 8-lane accumulator whose lane l is step l's ascending-(i, j) chain.
TEXT ·xiNormsAVX512(SB), NOSPLIT, $0-56
	MOVQ aT+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ n+40(FP), R9
	MOVQ np+48(FP), R13
	SHLQ $3, R13              // row stride in bytes
	VPXORQ Z0, Z0, Z0
	XORQ R11, R11             // i

xn_i:
	VMOVUPD (AX), Z1          // α_t[i] for the block's 8 steps
	MOVQ bT+16(FP), DX
	MOVQ betaT+24(FP), DI
	XORQ R10, R10             // j

xn_j:
	VBROADCASTSD (SI)(R10*8), Z2
	VMULPD Z2, Z1, Z2
	VMULPD (DX), Z2, Z2
	VMULPD (DI), Z2, Z2
	VADDPD Z2, Z0, Z0
	ADDQ $64, DX
	ADDQ $64, DI
	INCQ R10
	CMPQ R10, R9
	JLT xn_j

	ADDQ R13, SI
	ADDQ $64, AX
	INCQ R11
	CMPQ R11, R9
	JLT xn_i

	MOVQ norms+32(FP), BX
	VMOVUPD Z0, (BX)
	VZEROUPPER
	RET

// XIACC adds one 8-lane block of ξ terms to aNum: with the broadcast α_t[i]
// in Z0 and xiNorm in Z15, T = (((α·a)·b)·β)/xiNorm and aNum += T.
#define XIACC(OFF, T) \
	VMULPD OFF(SI)(R10*8), Z0, T; \
	VMULPD OFF(DX)(R10*8), T, T; \
	VMULPD OFF(DI)(R10*8), T, T; \
	VDIVPD Z15, T, T; \
	VADDPD OFF(R8)(R10*8), T, T; \
	VMOVUPD T, OFF(R8)(R10*8)

// func xiAccumAVX512(alpha, a, bcol, next, aNum *float64, xiNorm float64, n, np int)
//
// aNum[i*np+j] += (((alpha[i]·a[i*np+j])·bcol[j])·next[j]) / xiNorm for all
// np padded destination states j of every row i < n with alpha[i] ≠ 0 (a NaN
// alpha[i] is not zero and runs, as in Go), 16 lanes per iteration.
TEXT ·xiAccumAVX512(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ bcol+16(FP), DX
	MOVQ next+24(FP), DI
	MOVQ aNum+32(FP), R8
	VBROADCASTSD xiNorm+40(FP), Z15
	MOVQ n+48(FP), R9
	MOVQ np+56(FP), BX
	MOVQ BX, R13
	SHLQ $3, R13              // row stride in bytes
	VXORPD X14, X14, X14
	XORQ R11, R11             // i

xa_i:
	VMOVSD (AX)(R11*8), X0
	VUCOMISD X14, X0
	JNE xa_live
	JPS xa_live
	JMP xa_next

xa_live:
	VBROADCASTSD X0, Z0
	XORQ R10, R10             // jb

xa_j:
	XIACC(0, Z1)
	XIACC(64, Z2)
	ADDQ $16, R10
	CMPQ R10, BX
	JLT xa_j

xa_next:
	ADDQ R13, SI
	ADDQ R13, R8
	INCQ R11
	CMPQ R11, R9
	JLT xa_i
	VZEROUPPER
	RET

// BWACC2 is BWACC on 4-lane ymm blocks (b_j in Y4, β_{t+1}[j] in Y5).
#define BWACC2(SRC, T, ACC) \
	VMULPD SRC, Y4, T; \
	VMULPD Y5, T, T; \
	VADDPD T, ACC, ACC

// func backwardAVX2(next, at, bcol, cur *float64, scale float64, n, np int)
//
// backwardAVX512 on ymm: every pass covers 16 padded source states (four
// 4-lane blocks).
TEXT ·backwardAVX2(SB), NOSPLIT, $0-56
	MOVQ next+0(FP), DI
	MOVQ at+8(FP), SI
	MOVQ bcol+16(FP), DX
	MOVQ cur+24(FP), R8
	VBROADCASTSD scale+32(FP), Y15
	MOVQ n+40(FP), R9
	MOVQ np+48(FP), BX
	MOVQ BX, R13
	SHLQ $3, R13
	XORQ R10, R10

b2_pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ (SI)(R10*8), R12
	XORQ R11, R11

b2_j:
	VBROADCASTSD (DX)(R11*8), Y4
	VBROADCASTSD (DI)(R11*8), Y5
	BWACC2((R12), Y6, Y0)
	BWACC2(32(R12), Y7, Y1)
	BWACC2(64(R12), Y8, Y2)
	BWACC2(96(R12), Y9, Y3)
	ADDQ R13, R12
	INCQ R11
	CMPQ R11, R9
	JLT b2_j

	VDIVPD Y15, Y0, Y0
	VMOVUPD Y0, (R8)(R10*8)
	VDIVPD Y15, Y1, Y1
	VMOVUPD Y1, 32(R8)(R10*8)
	VDIVPD Y15, Y2, Y2
	VMOVUPD Y2, 64(R8)(R10*8)
	VDIVPD Y15, Y3, Y3
	VMOVUPD Y3, 96(R8)(R10*8)
	ADDQ $16, R10
	CMPQ R10, BX
	JLT b2_pass

	VZEROUPPER
	RET

// func xiNormsAVX2(aT, a, bT, betaT *float64, norms *[8]float64, n, np int)
//
// xiNormsAVX512 on ymm: lanes 0–3 accumulate in Y0 and lanes 4–7 in Y6, two
// independent sets of chains.
TEXT ·xiNormsAVX2(SB), NOSPLIT, $0-56
	MOVQ aT+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ n+40(FP), R9
	MOVQ np+48(FP), R13
	SHLQ $3, R13
	VXORPD Y0, Y0, Y0
	VXORPD Y6, Y6, Y6
	XORQ R11, R11

x2_i:
	VMOVUPD (AX), Y1
	VMOVUPD 32(AX), Y4
	MOVQ bT+16(FP), DX
	MOVQ betaT+24(FP), DI
	XORQ R10, R10

x2_j:
	VBROADCASTSD (SI)(R10*8), Y2
	VMULPD Y2, Y1, Y3
	VMULPD Y2, Y4, Y5
	VMULPD (DX), Y3, Y3
	VMULPD 32(DX), Y5, Y5
	VMULPD (DI), Y3, Y3
	VMULPD 32(DI), Y5, Y5
	VADDPD Y3, Y0, Y0
	VADDPD Y5, Y6, Y6
	ADDQ $64, DX
	ADDQ $64, DI
	INCQ R10
	CMPQ R10, R9
	JLT x2_j

	ADDQ R13, SI
	ADDQ $64, AX
	INCQ R11
	CMPQ R11, R9
	JLT x2_i

	MOVQ norms+32(FP), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y6, 32(BX)
	VZEROUPPER
	RET

// XIACC2 is XIACC on 4-lane ymm blocks (α_t[i] in Y0, xiNorm in Y15).
#define XIACC2(OFF, T) \
	VMULPD OFF(SI)(R10*8), Y0, T; \
	VMULPD OFF(DX)(R10*8), T, T; \
	VMULPD OFF(DI)(R10*8), T, T; \
	VDIVPD Y15, T, T; \
	VADDPD OFF(R8)(R10*8), T, T; \
	VMOVUPD T, OFF(R8)(R10*8)

// func xiAccumAVX2(alpha, a, bcol, next, aNum *float64, xiNorm float64, n, np int)
//
// xiAccumAVX512 on ymm, 16 lanes per iteration.
TEXT ·xiAccumAVX2(SB), NOSPLIT, $0-64
	MOVQ alpha+0(FP), AX
	MOVQ a+8(FP), SI
	MOVQ bcol+16(FP), DX
	MOVQ next+24(FP), DI
	MOVQ aNum+32(FP), R8
	VBROADCASTSD xiNorm+40(FP), Y15
	MOVQ n+48(FP), R9
	MOVQ np+56(FP), BX
	MOVQ BX, R13
	SHLQ $3, R13
	VXORPD X14, X14, X14
	XORQ R11, R11

a2x_i:
	VMOVSD (AX)(R11*8), X0
	VUCOMISD X14, X0
	JNE a2x_live
	JPS a2x_live
	JMP a2x_next

a2x_live:
	VBROADCASTSD X0, Y0
	XORQ R10, R10

a2x_j:
	XIACC2(0, Y1)
	XIACC2(32, Y2)
	XIACC2(64, Y3)
	XIACC2(96, Y4)
	ADDQ $16, R10
	CMPQ R10, BX
	JLT a2x_j

a2x_next:
	ADDQ R13, SI
	ADDQ R13, R8
	INCQ R11
	CMPQ R11, R9
	JLT a2x_i
	VZEROUPPER
	RET

// func cpuidRaw(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidRaw(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
