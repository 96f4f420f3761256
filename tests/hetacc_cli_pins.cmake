# Pins what the hetacc command line prints and writes, so a refactor of the
# tool-flow can show that every DSE flag still yields the same strategy,
# report and generated HLS project byte for byte.
#
#   cmake -DHETACC=path/to/hetacc -DWORK_DIR=scratch/dir -P hetacc_cli_pins.cmake
#
# Each pin is the SHA-256 of a run's stdout, with the two lines that are not
# a function of the inputs removed: the optimizer wall time (wall clock) and
# the functional-testbed `L-inf` float errors. `--out` runs also pin every
# file the design writes. Add -DRECORD=ON to print the current hashes instead
# of checking them.

if(NOT HETACC OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHETACC=<hetacc> -DWORK_DIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs hetacc with ARGN in WORK_DIR; stdout lands in `out`, the exit code in
# `rc`.
function(run_hetacc)
  execute_process(COMMAND "${HETACC}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                  RESULT_VARIABLE code)
  set(out "${stdout}" PARENT_SCOPE)
  set(err "${stderr}" PARENT_SCOPE)
  set(rc "${code}" PARENT_SCOPE)
endfunction()

function(fail what)
  message(SEND_ERROR "${what}")
  set_property(GLOBAL APPEND PROPERTY pin_failures "${what}")
endfunction()

function(check_hash name actual expected)
  if(RECORD)
    message(STATUS "pin ${name} ${actual}")
  elseif(NOT actual STREQUAL expected)
    fail("${name}: hash ${actual}, pinned ${expected}")
  endif()
endfunction()

# pin_stdout(<name> <sha256> <hetacc args>...)
function(pin_stdout name expected)
  run_hetacc(${ARGN})
  if(NOT rc EQUAL 0)
    fail("${name}: exit ${rc}\n${err}")
  else()
    string(REGEX REPLACE "[^\n]*optimizer wall time[^\n]*\n" "" out "${out}")
    string(REGEX REPLACE "[^\n]*L-inf[^\n]*\n" "" out "${out}")
    string(SHA256 h "${out}")
    check_hash("${name}" "${h}" "${expected}")
  endif()
endfunction()

# pin_design(<name> <sha256> <dir>): one hash over the sorted file list and
# every file's own hash. The design (weights baked into the source, about
# 200 MB for AlexNet) is deleted once hashed.
function(pin_design name expected dir)
  file(GLOB_RECURSE files RELATIVE "${WORK_DIR}/${dir}" "${WORK_DIR}/${dir}/*")
  list(SORT files)
  set(manifest "")
  foreach(f IN LISTS files)
    file(SHA256 "${WORK_DIR}/${dir}/${f}" fh)
    string(APPEND manifest "${f} ${fh}\n")
  endforeach()
  string(SHA256 h "${manifest}")
  if(NOT RECORD AND NOT h STREQUAL expected)
    message(STATUS "${name} files:\n${manifest}")
  endif()
  check_hash("${name}" "${h}" "${expected}")
  file(REMOVE_RECURSE "${WORK_DIR}/${dir}")
endfunction()

# expect_exit(<name> <code> <hetacc args>...)
function(expect_exit name code)
  run_hetacc(${ARGN})
  if(NOT rc STREQUAL code)
    fail("${name}: exit ${rc}, want ${code}\n${err}")
  endif()
endfunction()

# expect_line(<name> <regex> <hetacc args>...): some stdout line matches.
function(expect_line name regex)
  run_hetacc(${ARGN})
  if(NOT rc EQUAL 0)
    fail("${name}: exit ${rc}\n${err}")
  elseif(NOT out MATCHES "(^|\n)${regex}")
    fail("${name}: no line matches '${regex}' in\n${out}")
  endif()
endfunction()

# pin_dse(<sha256> <model> <flags>...): the strategy report with codegen off.
function(pin_dse expected model)
  string(REPLACE ";" " " label "${model};${ARGN}")
  string(STRIP "${label}" label)
  pin_stdout("${label}" "${expected}" --model ${model} --no-codegen ${ARGN})
endfunction()

# Every DSE flag on a chain net, a deep chain net and a branchy net.
# vgg-e with --interval-dp is left out: Algorithm 1 takes seconds there.
pin_dse(9684433e90288ba249050a77ed1d998ef18a57e47a4af420477076f0bb01b8d7
        alexnet)
pin_dse(9684433e90288ba249050a77ed1d998ef18a57e47a4af420477076f0bb01b8d7
        alexnet --interval-dp)
pin_dse(2347d966750070ac301e9b2b3c1eed18a15d6c6718f92156f58e097a94ef0ae4
        alexnet --explore-tiles)
pin_dse(49ecc749f4ac08e886b131589e4985fb80bfd8beea3b0f204f9b3e05e884be34
        alexnet --wino-tile 2)
pin_dse(95069bf31c9a06679f28c8ab64117c0780a751e45075f2e9c26e66f815cb551f
        alexnet --conventional-only)
pin_dse(831032d26b14f2bbe2b169f5e442d9f20acf82152b9548a20980072b8ab420c4
        alexnet --int8)
pin_dse(75f1106a3a84e5e022eabb4dfe493b744d74493ac7e781dd9e0cbab9349c8911
        alexnet --protect)
pin_dse(a86ef4e8ce20ba4a5d6c042db750eb468719abb3004f400cd5a8e2eb1d95713c
        vgg-e)
pin_dse(a8d848c2edc746973b44888ef2d869145c4f8d0571c6822d7b7e85ea63ab478d
        vgg-e --explore-tiles)
pin_dse(d98cc88de24e64b03329556c2271f29b61debaacd977d0e003f667233d6c24a7
        vgg-e --wino-tile 2)
pin_dse(b776716edb9daad3ccd1eeed1fa2acfdf365b79922ce871efec54bc92879ac06
        vgg-e --conventional-only)
pin_dse(6ecdc687d2ae61e38d4b5eefc59cba57f5482443a6973b183c8576555d49dfef
        vgg-e --int8)
pin_dse(a5b2c068cda072d11cd40d224fdd32312336d152270589996bc6143d4e083164
        vgg-e --protect)
pin_dse(24574ef1204d504824a43451be698982506f6458d19bfc0c45f805f435d5c6d4
        inception-mini)
pin_dse(24574ef1204d504824a43451be698982506f6458d19bfc0c45f805f435d5c6d4
        inception-mini --interval-dp)
pin_dse(900dfc0fa4531f130c4e012e65a03dfb1ad71512f93c28e7a79aeae5d7e59658
        inception-mini --explore-tiles)
pin_dse(6a010409386ce29ac5647153b59430d8ba78577580fc3c7bb811846c57465a7d
        inception-mini --wino-tile 2)
pin_dse(8682531f7b36a1e7f10ba6184f9f0d8975aeeec59259ed83531a4b79c101c3b0
        inception-mini --conventional-only)
pin_dse(9b384997c5c4f21f696dbedb892ee9a6f8f8b43426e80bbfc08315ca4fd6b8e5
        inception-mini --int8)
pin_dse(7e2f62db5deda2218599c864be89e0543d0c35496000d552fc671de9d698a36d
        inception-mini --protect)

# Generated HLS projects: the stdout of the --out run and the files it wrote.
pin_stdout("alexnet --out"
           e33fdfde80d3647aaaae712a8184e09a6a7ab1d23916085f067adec50c6d8be5
           --model alexnet --out design-default)
pin_design("alexnet --out files"
           920e3dc1d035abaed0017e25c48dde2e0d4cc5f86ef1e6ef6f95ccfa0fd56f3d
           design-default)
pin_stdout("alexnet --wino-tile 2 --out"
           78c0eee581827cc79a1b7c9a428abe1013231a1736c5d0b1b1dfade47218beaf
           --model alexnet --wino-tile 2 --out design-wino2)
pin_design("alexnet --wino-tile 2 --out files"
           8e46a115777ab0c25e8efa768b54db52fe65618474b8f528e2f9195275da8046
           design-wino2)

# --protect prints the protection delta with any DSE flag.
pin_dse(0764a56a2e04c6bf9b4e4b69eae981809d205ec14b22421a32d80f7ba6a0ea5d
        alexnet --protect --int8)
pin_dse(bfcd0b4253f9fd7df57222eaef11eb824989c90515446b0efcf129670fe13848
        alexnet --protect --conventional-only)
foreach(flag --int8 --conventional-only)
  expect_line("alexnet --protect ${flag} delta"
              "protection delta \\(unprotected -> protected\\):"
              --model alexnet --no-codegen --protect ${flag})
endforeach()

# --budget-mb reaches the serving ladder: 1 MB is below alexnet's minimal
# budget, so home serves the same 519,034-cycle primary as --serve alone.
expect_line("alexnet --serve-ladder --budget-mb 1"
            " +rung [0-9]+ +primary +519034 cycles/request[^\n]*\\[home\\]"
            --model alexnet --serve synth:20 --serve-ladder auto --budget-mb 1)

# A Winograd tile below 1 is a parse error, not a crash.
expect_exit("--wino-tile 0" 2 --model alexnet --no-codegen --wino-tile 0)
expect_exit("--wino-tile -2" 2 --model alexnet --no-codegen --wino-tile -2)

get_property(failures GLOBAL PROPERTY pin_failures)
list(LENGTH failures n)
if(n GREATER 0)
  message(FATAL_ERROR "${n} hetacc CLI pin(s) failed")
endif()
