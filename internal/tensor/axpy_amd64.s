#include "textflag.h"

// func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2F64(alpha float64, x, y []float64)
//
// y[i] += alpha * x[i]. Separate VMULPD/VADDPD (no FMA): each lane performs
// exactly the two IEEE operations of the scalar loop, so the result is
// bit-identical to the pure-Go fallback. The caller guarantees
// len(y) == len(x); the element count is taken from y.
TEXT ·axpyAVX2F64(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	VBROADCASTSD alpha+0(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   f64tail

f64loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JLT  f64loop8

f64tail:
	CMPQ AX, CX
	JGE  f64done

f64tailloop:
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JLT  f64tailloop

f64done:
	VZEROUPPER
	RET

// func axpyAVX2F32(alpha float32, x, y []float32)
//
// float32 variant of axpyAVX2F64 (16 elements per iteration).
TEXT ·axpyAVX2F32(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	VBROADCASTSS alpha+0(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   f32tail

f32loop16:
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS 32(SI)(AX*4), Y2
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VADDPS  (DI)(AX*4), Y1, Y1
	VADDPS  32(DI)(AX*4), Y2, Y2
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	ADDQ $16, AX
	CMPQ AX, DX
	JLT  f32loop16

f32tail:
	CMPQ AX, CX
	JGE  f32done

f32tailloop:
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	ADDSS (DI)(AX*4), X1
	MOVSS X1, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JLT  f32tailloop

f32done:
	VZEROUPPER
	RET
