#include "textflag.h"

// func prefetchLines(addr unsafe.Pointer, n int)
TEXT ·prefetchLines(SB), NOSPLIT, $0-16
	MOVQ addr+0(FP), AX
	MOVQ n+8(FP), CX
	TESTQ CX, CX
	JLE done
loop:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	DECQ CX
	JNZ loop
done:
	RET
