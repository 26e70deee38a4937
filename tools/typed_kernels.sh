#!/bin/sh
# Typed-kernel guard: fails when a kernel below the probe calls the generic
# compare or Stdlib's polymorphic min/max.
#
#     sh tools/typed_kernels.sh
#
# Run from the repository root.  Builds the release objects of lib/sort,
# lib/baselines, lib/core and lib/window into a separate build directory
# (so the default _build is left alone), disassembles lib/sort,
# lib/baselines, lib/core and Frame with `objdump -dr`, and lists every
# function holding a relocation to caml_{lessthan,lessequal,greaterthan,
# greaterequal,equal,notequal,compare} or Stdlib.min/max.  Without flambda,
# an unannotated `<`, `=`, `compare`, `min` or `max` compiles to exactly
# such an out-of-line call, so one relocation is one generic compare on a
# hot path.  There is no allowlist: exits 1 on any hit.
set -eu

build=${TYPED_KERNELS_BUILD_DIR:-_build_release}
dune build --root . --profile release --build-dir "$build" \
  ./lib/sort/holistic_sort.cmxa ./lib/baselines/holistic_baselines.cmxa \
  ./lib/core/holistic_core.cmxa ./lib/window/holistic_window.cmxa

objs=$(ls "$build"/default/lib/sort/.holistic_sort.objs/native/*.o \
  "$build"/default/lib/baselines/.holistic_baselines.objs/native/*.o \
  "$build"/default/lib/core/.holistic_core.objs/native/*.o \
  "$build"/default/lib/window/.holistic_window.objs/native/holistic_window__Frame.o)

hits=$(for o in $objs; do
  objdump -dr "$o" | awk -v obj="$(basename "$o")" '
    /^[0-9a-f]+ <.*>:$/ { fn = $2; gsub(/[<>:]/, "", fn) }
    /R_X86_64|R_AARCH64/ {
      sym = $NF; sub(/[-+]0x[0-9a-f]+$/, "", sym)
      if (sym ~ /^caml_(lessthan|lessequal|greaterthan|greaterequal|equal|notequal|compare)$/ \
          || sym ~ /^camlStdlib[._]+(min|max)_[0-9]+$/)
        print obj ": " fn " -> " sym
    }'
done | sort | uniq -c)

if [ -n "$hits" ]; then
  echo "typed kernels: generic compare or polymorphic min/max below the probe:"
  echo "$hits"
  exit 1
fi
echo "typed kernels: no generic compare or polymorphic min/max in $(echo "$objs" | wc -w) objects"
