#include "textflag.h"

// The quad lane block (quad in direct_amd64.go): one 32-byte row of four
// lanes per field.
#define QX 0
#define QY 32
#define QZ 64
#define QVX 96
#define QVY 128
#define QVZ 160
#define QSKIP 192
#define QE2 224
#define QAX 256
#define QAY 288
#define QAZ 320
#define QJX 352
#define QJY 384
#define QJZ 416
#define QPOT 448
#define QNND2 480
#define QNN 512

DATA one<>+0(SB)/8, $1.0
DATA one<>+8(SB)/8, $1.0
DATA one<>+16(SB)/8, $1.0
DATA one<>+24(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $32

DATA three<>+0(SB)/8, $3.0
DATA three<>+8(SB)/8, $3.0
DATA three<>+16(SB)/8, $3.0
DATA three<>+24(SB)/8, $3.0
GLOBL three<>(SB), RODATA|NOPTR, $32

DATA inf<>+0(SB)/8, $0x7ff0000000000000
DATA inf<>+8(SB)/8, $0x7ff0000000000000
DATA inf<>+16(SB)/8, $0x7ff0000000000000
DATA inf<>+24(SB)/8, $0x7ff0000000000000
GLOBL inf<>(SB), RODATA|NOPTR, $32

// func quadAVX2(q *quad, mass []float64, pos, vel []vec.V3)
//
// EvalSkip for four i-particles at once, lane l of every Y register being
// i-particle l. Each broadcast j runs EvalSkip's operations on the same
// operands in the same order; a lane EvalSkip would skip (j == skip or
// r2 == 0) adds its contributions ANDed to +0, which leaves a sum that
// started at +0 unchanged. Y0-Y8 accumulate a, jerk, pot, nnd2 and nn;
// Y9-Y15 are temporaries; the i-constants stay memory operands. The valid
// mask and rinv2 live in the frame. Only VEX-encoded instructions touch an
// X or Y register: a legacy SSE one costs an AVX-SSE transition per j.
TEXT ·quadAVX2(SB), NOSPLIT, $72-80
	MOVQ q+0(FP), DI
	MOVQ mass_base+8(FP), SI
	MOVQ mass_len+16(FP), DX
	MOVQ pos_base+32(FP), R8
	MOVQ vel_base+56(FP), R9
	VXORPD   Y0, Y0, Y0
	VXORPD   Y1, Y1, Y1
	VXORPD   Y2, Y2, Y2
	VXORPD   Y3, Y3, Y3
	VXORPD   Y4, Y4, Y4
	VXORPD   Y5, Y5, Y5
	VXORPD   Y6, Y6, Y6
	VMOVUPD  inf<>(SB), Y7
	VPCMPEQQ Y8, Y8, Y8 // nn = -1
	XORQ     CX, CX
	TESTQ    DX, DX
	JEQ      done

loop:
	// d = r_j - r_i; r2 = dx*dx + dy*dy + dz*dz + e2
	VBROADCASTSD 0(R8), Y9
	VSUBPD       QX(DI), Y9, Y9
	VBROADCASTSD 8(R8), Y10
	VSUBPD       QY(DI), Y10, Y10
	VBROADCASTSD 16(R8), Y11
	VSUBPD       QZ(DI), Y11, Y11
	VMULPD       Y9, Y9, Y12
	VMULPD       Y10, Y10, Y13
	VADDPD       Y13, Y12, Y12
	VMULPD       Y11, Y11, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       QE2(DI), Y12, Y12

	// valid = r2 != 0 && j != skip
	VXORPD       Y13, Y13, Y13
	VCMPPD       $4, Y13, Y12, Y13 // NEQ_UQ: a NaN r2 is evaluated, as in EvalSkip
	MOVQ         CX, j-72(SP)
	VPBROADCASTQ j-72(SP), Y14
	VPCMPEQQ     QSKIP(DI), Y14, Y15
	VANDNPD      Y13, Y15, Y13
	VMOVUPD      Y13, mask-32(SP)

	// if valid && r2 < nnd2 { nnd2, nn = r2, j }
	VCMPPD    $0x11, Y7, Y12, Y15 // LT_OQ
	VANDPD    Y13, Y15, Y15
	VBLENDVPD Y15, Y12, Y7, Y7
	VBLENDVPD Y15, Y14, Y8, Y8

	// rinv = 1 / sqrt(r2); rinv2 = rinv*rinv; pot -= m*rinv; mrinv3 = m*rinv*rinv2
	VSQRTPD      Y12, Y12
	VMOVUPD      one<>(SB), Y13
	VDIVPD       Y12, Y13, Y12
	VMULPD       Y12, Y12, Y13
	VMOVUPD      Y13, rinv2-64(SP)
	VBROADCASTSD (SI), Y14
	VMULPD       Y12, Y14, Y14
	VANDPD       mask-32(SP), Y14, Y15
	VSUBPD       Y15, Y6, Y6
	VMULPD       Y13, Y14, Y14

	// Y13 = 3*rv, rv = (dx*dvx + dy*dvy + dz*dvz) * rinv2; Y12 = dvx
	VBROADCASTSD 0(R9), Y12
	VSUBPD       QVX(DI), Y12, Y12
	VMULPD       Y12, Y9, Y13
	VBROADCASTSD 8(R9), Y15
	VSUBPD       QVY(DI), Y15, Y15
	VMULPD       Y15, Y10, Y15
	VADDPD       Y15, Y13, Y13
	VBROADCASTSD 16(R9), Y15
	VSUBPD       QVZ(DI), Y15, Y15
	VMULPD       Y15, Y11, Y15
	VADDPD       Y15, Y13, Y13
	VMULPD       rinv2-64(SP), Y13, Y13
	VMULPD       three<>(SB), Y13, Y13

	// ax += mrinv3*dx; jx += mrinv3*(dvx - 3*rv*dx)
	VMULPD Y9, Y14, Y15
	VANDPD mask-32(SP), Y15, Y15
	VADDPD Y15, Y0, Y0
	VMULPD Y9, Y13, Y9
	VSUBPD Y9, Y12, Y9
	VMULPD Y9, Y14, Y9
	VANDPD mask-32(SP), Y9, Y9
	VADDPD Y9, Y3, Y3

	// y, dvy formed again (no register held it)
	VBROADCASTSD 8(R9), Y12
	VSUBPD       QVY(DI), Y12, Y12
	VMULPD       Y10, Y14, Y15
	VANDPD       mask-32(SP), Y15, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y10, Y13, Y10
	VSUBPD       Y10, Y12, Y10
	VMULPD       Y10, Y14, Y10
	VANDPD       mask-32(SP), Y10, Y10
	VADDPD       Y10, Y4, Y4

	// z
	VBROADCASTSD 16(R9), Y12
	VSUBPD       QVZ(DI), Y12, Y12
	VMULPD       Y11, Y14, Y15
	VANDPD       mask-32(SP), Y15, Y15
	VADDPD       Y15, Y2, Y2
	VMULPD       Y11, Y13, Y11
	VSUBPD       Y11, Y12, Y11
	VMULPD       Y11, Y14, Y11
	VANDPD       mask-32(SP), Y11, Y11
	VADDPD       Y11, Y5, Y5

	ADDQ $8, SI
	ADDQ $24, R8
	ADDQ $24, R9
	INCQ CX
	CMPQ CX, DX
	JLT  loop

done:
	VMOVUPD Y0, QAX(DI)
	VMOVUPD Y1, QAY(DI)
	VMOVUPD Y2, QAZ(DI)
	VMOVUPD Y3, QJX(DI)
	VMOVUPD Y4, QJY(DI)
	VMOVUPD Y5, QJZ(DI)
	VMOVUPD Y6, QPOT(DI)
	VMOVUPD Y7, QNND2(DI)
	VMOVUPD Y8, QNN(DI)
	VZEROUPPER
	RET
