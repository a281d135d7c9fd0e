# Golden-verdict gate over the committed .gilr corpus: `gilr verify --json`
# on every examples/corpus module, with its "seconds" values set to 0, must
# byte-match examples/corpus/expected/<module>.json. Verdicts, diagnostics,
# solver counters and exit codes are all pinned. Run from the repository
# root, since the reports embed the module path as given:
#
#   cmake -DGILR=build/tools/gilr -DOUT_DIR=build/golden \
#         -P tests/corpus_golden.cmake
#
# Mismatching reports are written to OUT_DIR and diffed.
if(NOT GILR OR NOT OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DGILR=<gilr> -DOUT_DIR=<dir> -P corpus_golden.cmake")
endif()

file(GLOB Modules RELATIVE "${CMAKE_CURRENT_SOURCE_DIR}"
     "${CMAKE_CURRENT_SOURCE_DIR}/examples/corpus/*.gilr")
if(NOT Modules)
  message(FATAL_ERROR "no .gilr modules under examples/corpus")
endif()
find_program(DIFF diff)

set(Failed "")
foreach(Module ${Modules})
  get_filename_component(Name "${Module}" NAME_WE)
  set(Expected "examples/corpus/expected/${Name}.json")
  execute_process(COMMAND "${GILR}" verify --json "${Module}"
                  OUTPUT_VARIABLE Got)
  string(REGEX REPLACE "\"seconds\": [0-9.eE+-]+" "\"seconds\": 0"
         Got "${Got}")
  file(READ "${Expected}" Want)
  if(Got STREQUAL Want)
    message(STATUS "${Name}: matches ${Expected}")
  else()
    list(APPEND Failed "${Name}")
    file(WRITE "${OUT_DIR}/${Name}.json" "${Got}")
    if(DIFF)
      execute_process(COMMAND "${DIFF}" -u "${Expected}"
                              "${OUT_DIR}/${Name}.json")
    endif()
  endif()
endforeach()

if(Failed)
  message(FATAL_ERROR "golden mismatch for: ${Failed}")
endif()
